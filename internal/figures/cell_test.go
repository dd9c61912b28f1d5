package figures

import (
	"context"
	"errors"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// MemoKeys lists d's memo keys in order (exported to the external tests).
func MemoKeys(d *Data) []string {
	var keys []string
	d.memo.Range(func(k, _ any) bool {
		keys = append(keys, k.(string))
		return true
	})
	sort.Strings(keys)
	return keys
}

func TestCellComputesOnceAcrossGoroutines(t *testing.T) {
	var c cell[*int]
	var calls atomic.Int32
	const n = 8
	got := make([]*int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.getContext(context.Background(), func() (*int, error) {
				calls.Add(1)
				return new(int), nil
			})
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}(i)
	}
	wg.Wait()
	if calls.Load() != 1 {
		t.Errorf("fn ran %d times, want 1", calls.Load())
	}
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("caller %d got a different value", i)
		}
	}
}

func TestCellKeepsPlainErrors(t *testing.T) {
	var c cell[int]
	boom := errors.New("boom")
	calls := 0
	fn := func() (int, error) { calls++; return 0, boom }
	for i := 0; i < 2; i++ {
		if _, err := c.getContext(context.Background(), fn); err != boom {
			t.Fatalf("err = %v, want boom", err)
		}
	}
	if calls != 1 {
		t.Errorf("fn ran %d times, want 1 (a non-context error is the cell's value)", calls)
	}
}

// TestCellCanceledOwnerDoesNotPoison has the owner's computation fail
// under a canceled context while a live waiter is queued on it: the
// waiter recomputes under its own context and never sees the owner's
// error.
func TestCellCanceledOwnerDoesNotPoison(t *testing.T) {
	var c cell[int]
	ownerCtx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	ownerErr := make(chan error, 1)
	go func() {
		_, err := c.getContext(ownerCtx, func() (int, error) {
			close(started)
			<-ownerCtx.Done()
			return 0, ownerCtx.Err()
		})
		ownerErr <- err
	}()
	<-started
	waiter := make(chan error, 1)
	var got int
	go func() {
		v, err := c.getContext(context.Background(), func() (int, error) { return 42, nil })
		got = v
		waiter <- err
	}()
	cancel()
	if err := <-ownerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner err = %v, want context.Canceled", err)
	}
	if err := <-waiter; err != nil || got != 42 {
		t.Fatalf("waiter = %d, %v; want 42, nil", got, err)
	}
	if v, err := c.getContext(context.Background(), func() (int, error) { return -1, nil }); v != 42 || err != nil {
		t.Errorf("stored = %d, %v; want 42, nil", v, err)
	}
}

// TestCellCanceledWaiterLeaves checks a waiter whose own context ends
// stops waiting without disturbing the running computation.
func TestCellCanceledWaiterLeaves(t *testing.T) {
	var c cell[int]
	release := make(chan struct{})
	started := make(chan struct{})
	owner := make(chan int, 1)
	go func() {
		v, _ := c.getContext(context.Background(), func() (int, error) {
			close(started)
			<-release
			return 7, nil
		})
		owner <- v
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.getContext(ctx, func() (int, error) { return -1, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter err = %v", err)
	}
	close(release)
	if v := <-owner; v != 7 {
		t.Fatalf("owner = %d, want 7", v)
	}
}

func TestForkSharesInputsOnly(t *testing.T) {
	d := testData(t)
	f, err := d.RackDays()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Fig2(); err != nil {
		t.Fatal(err)
	}
	fork := d.Fork()
	if keys := MemoKeys(fork); !slices.Equal(keys, []string{keyRackDays}) && !slices.Equal(keys, []string{keyQuality, keyRackDays}) {
		t.Errorf("fork memo = %v, want only the shared inputs", keys)
	}
	if g, _ := fork.RackDays(); g != f {
		t.Error("fork rebuilt the rack-day frame instead of sharing it")
	}
}
