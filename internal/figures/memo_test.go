package figures_test

import (
	"context"
	"encoding/json"
	"errors"
	"slices"
	"sync"
	"testing"

	"rainshine"
	"rainshine/internal/envan"
	"rainshine/internal/figures"
)

func memoStudy(t *testing.T) *rainshine.Study {
	t.Helper()
	s, err := rainshine.NewStudy(rainshine.WithSeed(7), rainshine.WithDays(180), rainshine.WithRacks(40, 35))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCanceledQ3DoesNotPoisonTheMemo asks for Q3 under a canceled
// context, then under a live one: the second answer must equal a fresh
// study's.
func TestCanceledQ3DoesNotPoisonTheMemo(t *testing.T) {
	s := memoStudy(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.ClimateGuidanceContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Q3 err = %v, want context.Canceled", err)
	}
	got, err := s.ClimateGuidanceContext(context.Background())
	if err != nil {
		t.Fatalf("live Q3 after a canceled one: %v", err)
	}
	want, err := memoStudy(t).ClimateGuidance()
	if err != nil {
		t.Fatal(err)
	}
	if g, w := mustJSON(t, got), mustJSON(t, want); g != w {
		t.Errorf("Q3 after cancellation:\n%s\nfresh study:\n%s", g, w)
	}
}

func TestConcurrentQ3CallersShareOneResult(t *testing.T) {
	d := memoStudy(t).Figures()
	const n = 4
	got := make([]*envan.Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := d.EnvAnalysisContext(context.Background())
			if err != nil {
				t.Error(err)
			}
			got[i] = res
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i] == nil || got[i] != got[0] {
			t.Fatalf("caller %d got %p, caller 0 got %p", i, got[i], got[0])
		}
	}
}

func TestFig18AndQ3ShareTheTree(t *testing.T) {
	s := memoStudy(t)
	fig, err := s.Figures().Fig18()
	if err != nil {
		t.Fatal(err)
	}
	q3, err := s.ClimateGuidance()
	if err != nil {
		t.Fatal(err)
	}
	if fig.Tree == nil || fig.Tree != q3.Tree {
		t.Errorf("Fig18 tree %p and Q3 tree %p are not one analysis", fig.Tree, q3.Tree)
	}
}

// TestVendorComparisonSharesOneStatisticsCell checks the price ratios
// never reach a memo key: a second comparison at other ratios adds no
// cell and reads the same statistics.
func TestVendorComparisonSharesOneStatisticsCell(t *testing.T) {
	s := memoStudy(t)
	d := s.Figures()
	if _, err := s.VendorComparison(1.0, 1.5); err != nil {
		t.Fatal(err)
	}
	keys := figures.MemoKeys(d)
	if !slices.Contains(keys, "skustats") {
		t.Fatalf("VendorComparison did not fill the statistics cell; memo = %v", keys)
	}
	st, err := d.VendorStats()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.VendorComparison(2.0); err != nil {
		t.Fatal(err)
	}
	if again := figures.MemoKeys(d); !slices.Equal(again, keys) {
		t.Errorf("memo after a second price ratio = %v, want %v", again, keys)
	}
	if st2, _ := d.VendorStats(); st2 != st {
		t.Error("VendorStats changed between comparisons")
	}
}
