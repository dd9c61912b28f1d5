package stats

import (
	"errors"
	"fmt"
	"math"
)

// Bin is one histogram bucket over [Lo, Hi) (the final bucket is closed).
type Bin struct {
	Lo, Hi float64
	Count  int
	// Values holds the member samples when the histogram was built with
	// KeepValues; used for per-bin summary statistics (the paper plots a
	// mean and sd per bin).
	Values []float64
}

// Histogram buckets a sample into fixed edges.
type Histogram struct {
	Bins []Bin
}

// NewHistogram buckets xs into the len(edges)-1 buckets defined by the
// ascending edges slice. Samples outside [edges[0], edges[last]] are
// clamped into the first/last bucket, which matches the paper's
// "<20" / ">70" style open-ended bins.
func NewHistogram(xs []float64, edges []float64, keepValues bool) (*Histogram, error) {
	if len(edges) < 2 {
		return nil, errors.New("stats: need at least two bin edges")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			return nil, fmt.Errorf("stats: bin edges not ascending at %d", i)
		}
	}
	h := &Histogram{Bins: make([]Bin, len(edges)-1)}
	for i := range h.Bins {
		h.Bins[i].Lo, h.Bins[i].Hi = edges[i], edges[i+1]
	}
	for _, x := range xs {
		i := bucketIndex(edges, x)
		h.Bins[i].Count++
		if keepValues {
			h.Bins[i].Values = append(h.Bins[i].Values, x)
		}
	}
	return h, nil
}

// bucketIndex returns the bucket for x, clamping out-of-range values.
func bucketIndex(edges []float64, x float64) int {
	n := len(edges) - 1
	if x < edges[0] {
		return 0
	}
	if x >= edges[n] {
		return n - 1
	}
	// Binary search for the right-most edge <= x.
	lo, hi := 0, n
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if edges[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// BinnedMoments computes, for a paired sample (key, value), the Moments
// of the values whose keys fall into each bucket of edges. A NaN key
// belongs to no bucket; keys outside the edges clamp into the first or
// last bucket like NewHistogram's. This is the primitive behind the
// "failure rate vs factor-bin" figures (Figs 5, 9, 16, 17).
func BinnedMoments(keys, values []float64, edges []float64) ([]Moments, error) {
	if len(keys) != len(values) {
		return nil, errors.New("stats: length mismatch")
	}
	if len(edges) < 2 {
		return nil, errors.New("stats: need at least two bin edges")
	}
	bins := make([]int32, len(keys))
	for i, k := range keys {
		bins[i] = -1
		if !math.IsNaN(k) {
			bins[i] = int32(bucketIndex(edges, k))
		}
	}
	return GroupMoments(bins, values, len(edges)-1), nil
}
