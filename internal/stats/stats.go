// Package stats provides the descriptive statistics used throughout the
// reproduction: moments, quantiles, empirical CDFs, histograms, rank and
// product-moment correlation, and bootstrap confidence intervals.
//
// The paper's figures report means, standard deviations, percentiles of
// failure metrics, and CDFs of over-provisioning fractions; everything
// needed to regenerate them lives here, implemented against the standard
// library only.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Variance returns the unbiased (n-1) sample variance of xs.
// It returns 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// PopVariance returns the population (n) variance of xs.
func PopVariance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n)
}

// Min returns the smallest element of xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest element of xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Quantile returns the p-quantile (0 <= p <= 1) of xs using linear
// interpolation between order statistics (R type-7, the default of R's
// quantile() and of NumPy), which is what the paper's R-based analysis
// used. xs need not be sorted.
func Quantile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		return 0, errors.New("stats: quantile p outside [0,1]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, p), nil
}

// quantileSorted computes the type-7 quantile of an already sorted slice.
func quantileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	if sorted[lo] == sorted[hi] {
		// Skip the interpolation: a*(1-f) + a*f can drift off a by an
		// ulp, escaping the sample range.
		return sorted[lo]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 0.5 quantile of xs.
func Median(xs []float64) (float64, error) { return Quantile(xs, 0.5) }

// Summary bundles the descriptive statistics reported throughout the
// paper's figures (mean with an sd error bar, plus range/percentiles).
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	P50    float64
	P95    float64
	P99    float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		P50:    quantileSorted(sorted, 0.50),
		P95:    quantileSorted(sorted, 0.95),
		P99:    quantileSorted(sorted, 0.99),
	}, nil
}

// Moments is the count, mean and sample standard deviation of a group:
// the bar and error bar of the paper's grouped-rate figures.
type Moments struct {
	N      int
	Mean   float64
	StdDev float64
}

// GroupMoments returns the Moments of values per group, where row r
// belongs to group keys[r] and a key outside [0, k) puts the row in no
// group; an empty group has zero Moments. keys and values have the same
// length.
//
// It makes two streaming passes over the rows: sums in row order, then
// squared deviations from each group's mean in row order. Those are the
// float operations Mean and Variance perform on the group's values
// collected in row order, so each field is bit-identical to what
// Summarize reports for that slice, without the per-group copy and sort.
func GroupMoments(keys []int32, values []float64, k int) []Moments {
	n := make([]int, k)
	acc := make([]float64, k)
	for r, g := range keys {
		if g < 0 || int(g) >= k {
			continue
		}
		n[g]++
		acc[g] += values[r]
	}
	out := make([]Moments, k)
	for g := range out {
		if n[g] > 0 {
			out[g] = Moments{N: n[g], Mean: acc[g] / float64(n[g])}
		}
	}
	clear(acc)
	for r, g := range keys {
		if g < 0 || int(g) >= k {
			continue
		}
		d := values[r] - out[g].Mean
		acc[g] += d * d
	}
	for g := range out {
		if n[g] >= 2 {
			out[g].StdDev = math.Sqrt(acc[g] / float64(n[g]-1))
		}
	}
	return out
}

// Pearson returns the Pearson product-moment correlation of xs and ys.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: length mismatch")
	}
	if len(xs) < 2 {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: zero variance input")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Spearman returns the Spearman rank correlation of xs and ys, using
// mid-ranks for ties.
func Spearman(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: length mismatch")
	}
	return Pearson(Ranks(xs), Ranks(ys))
}

// Ranks returns the 1-based mid-ranks of xs (ties share the average of
// the ranks they span).
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average rank for the tie group [i, j].
		avg := (float64(i+1) + float64(j+1)) / 2
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// Normalize returns xs scaled so its maximum is 1. The paper normalizes
// every presented metric to its maximum value; this helper does the same.
// An all-zero input is returned unchanged.
func Normalize(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	m, err := Max(out)
	if err != nil || m == 0 {
		return out
	}
	for i := range out {
		out[i] /= m
	}
	return out
}

// NormalizeTo returns xs divided by ref. A zero ref returns a copy of xs.
func NormalizeTo(xs []float64, ref float64) []float64 {
	out := append([]float64(nil), xs...)
	if ref == 0 {
		return out
	}
	for i := range out {
		out[i] /= ref
	}
	return out
}
