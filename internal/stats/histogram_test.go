package stats

import (
	"math"
	"testing"

	"rainshine/internal/rng"
)

func TestNewHistogram(t *testing.T) {
	xs := []float64{0.5, 1.5, 1.7, 2.5, 3.5}
	h, err := NewHistogram(xs, []float64{0, 1, 2, 3}, false)
	if err != nil {
		t.Fatal(err)
	}
	wantCounts := []int{1, 2, 2} // 3.5 clamps into the last bin
	for i, w := range wantCounts {
		if h.Bins[i].Count != w {
			t.Errorf("bin %d count = %d, want %d", i, h.Bins[i].Count, w)
		}
	}
}

func TestHistogramClamping(t *testing.T) {
	xs := []float64{-5, 100}
	h, err := NewHistogram(xs, []float64{0, 1, 2}, true)
	if err != nil {
		t.Fatal(err)
	}
	if h.Bins[0].Count != 1 || h.Bins[1].Count != 1 {
		t.Errorf("clamping failed: %+v", h.Bins)
	}
	if len(h.Bins[0].Values) != 1 || h.Bins[0].Values[0] != -5 {
		t.Errorf("KeepValues failed: %+v", h.Bins[0])
	}
}

func TestHistogramEdgeErrors(t *testing.T) {
	if _, err := NewHistogram(nil, []float64{1}, false); err == nil {
		t.Error("single edge should error")
	}
	if _, err := NewHistogram(nil, []float64{2, 1}, false); err == nil {
		t.Error("descending edges should error")
	}
	if _, err := NewHistogram(nil, []float64{1, 1}, false); err == nil {
		t.Error("equal edges should error")
	}
}

func TestBucketIndexBoundaries(t *testing.T) {
	edges := []float64{0, 10, 20, 30}
	tests := []struct {
		x    float64
		want int
	}{
		{0, 0}, {9.999, 0}, {10, 1}, {19.999, 1}, {20, 2}, {29.999, 2},
		{30, 2},  // top edge closed
		{-1, 0},  // clamp low
		{999, 2}, // clamp high
	}
	for _, tt := range tests {
		if got := bucketIndex(edges, tt.x); got != tt.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", tt.x, got, tt.want)
		}
	}
}

func TestBinnedMoments(t *testing.T) {
	keys := []float64{1, 1, 5, 5, 5, math.NaN(), -3}
	vals := []float64{10, 20, 1, 2, 3, 100, 30}
	gs, err := BinnedMoments(keys, vals, []float64{0, 3, 10})
	if err != nil {
		t.Fatal(err)
	}
	// The NaN key belongs to no bin; -3 clamps into the first.
	if gs[0].N != 3 || !almostEqual(gs[0].Mean, 20, 1e-12) || !almostEqual(gs[0].StdDev, 10, 1e-12) {
		t.Errorf("group 0 = %+v", gs[0])
	}
	if gs[1].N != 3 || !almostEqual(gs[1].Mean, 2, 1e-12) || !almostEqual(gs[1].StdDev, 1, 1e-12) {
		t.Errorf("group 1 = %+v", gs[1])
	}
}

func TestBinnedMomentsMismatch(t *testing.T) {
	if _, err := BinnedMoments([]float64{1}, []float64{1, 2}, []float64{0, 1}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := BinnedMoments([]float64{1}, []float64{1}, []float64{0}); err == nil {
		t.Error("a single edge should error")
	}
}

func TestBootstrapCICoversTruth(t *testing.T) {
	src := rng.New(1)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = src.NormFloat64() + 10
	}
	lo, hi, err := BootstrapCI(src.Split("boot"), xs, Mean, 500, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if lo > 10 || hi < 10 {
		t.Errorf("bootstrap CI [%v, %v] misses true mean 10", lo, hi)
	}
	if hi-lo > 1 {
		t.Errorf("bootstrap CI too wide: [%v, %v]", lo, hi)
	}
}

func TestBootstrapCIEmpty(t *testing.T) {
	src := rng.New(1)
	if _, _, err := BootstrapCI(src, nil, Mean, 10, 0.95); err != ErrEmpty {
		t.Errorf("err = %v", err)
	}
}
