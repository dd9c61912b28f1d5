// Package pdp implements the paper's Cat.-2 machinery: quantifying the
// influence of one decision variable on a failure metric while
// "normalizing the effect of all observed parameters other than the
// parameter of interest" (Section V-C).
//
// Two estimators are provided:
//
//   - Partial dependence (Hastie et al.): for each candidate value v of
//     the variable of interest X1, set X1 = v for every training row and
//     average the tree's predictions. Marginalizes over the empirical
//     joint of the other factors.
//
//   - Direct standardization: stratify the data by the observed
//     combinations of the other factors, compute the per-stratum mean of
//     the metric for each X1 level, and average strata with fixed
//     (X1-independent) weights. This needs no model and is the classical
//     epidemiological adjustment; it is what Fig 15's "MF approach"
//     amounts to.
package pdp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"rainshine/internal/cart"
	"rainshine/internal/frame"
	"rainshine/internal/parallel"
	"rainshine/internal/stats"
)

// Point is one (value, effect) pair of a partial dependence curve.
type Point struct {
	// Value is the probed value of the variable of interest; for
	// categorical variables it is the level index and Label names it.
	Value float64
	Label string
	// Effect is the marginalized model response at Value.
	Effect float64
}

// Compute evaluates the partial dependence of tree's response on the
// named feature over frame f. For a continuous feature the curve is
// evaluated at up to gridSize quantile-spaced points; for categorical
// features at every level. Compute is ComputeContext with
// context.Background() and a single worker.
func Compute(tree *cart.Tree, f *frame.Frame, feature string, gridSize int) ([]Point, error) {
	return ComputeContext(context.Background(), tree, f, feature, gridSize, 1)
}

// ComputeContext is Compute with the grid points fanned across workers.
//
// The result is exact: each Effect is the brute-force average of
// tree.Predict over every row of f with the feature set to the grid
// value, made of the same float additions in the same (row) order, so
// it is bit-identical to that loop and to itself at every worker
// count. It gets there without routing every row once per grid point.
// The grid is split into one contiguous run per worker, and each worker
// descends every row once with its run of grid points open: a split on
// the feature divides the open points between the children by the
// tree's own rule (cart.(*Tree).GoesLeft, settled once per run), every
// other split follows the row's value by the same rule, and each leaf
// reached adds its value to the sums of the points still open there.
func ComputeContext(ctx context.Context, tree *cart.Tree, f *frame.Frame, feature string, gridSize, workers int) ([]Point, error) {
	if gridSize <= 0 {
		gridSize = 20
	}
	fi := -1
	for i, feat := range tree.Features {
		if feat.Name == feature {
			fi = i
			break
		}
	}
	if fi < 0 {
		return nil, fmt.Errorf("pdp: tree has no feature %q", feature)
	}
	feat := tree.Features[fi]
	col, err := f.Col(feature)
	if err != nil {
		return nil, err
	}
	var grid []Point
	if feat.Kind == frame.Nominal || feat.Kind == frame.Ordinal {
		for li, lvl := range feat.Levels {
			grid = append(grid, Point{Value: float64(li), Label: lvl})
		}
	} else if grid = continuousGrid(col.Data, gridSize); len(grid) == 0 {
		return nil, fmt.Errorf("pdp: feature %q has no finite values to probe", feature)
	}
	// Materialize the feature matrix once.
	cols := make([][]float64, len(tree.Features))
	for i, tf := range tree.Features {
		c, err := f.Col(tf.Name)
		if err != nil {
			return nil, err
		}
		cols[i] = c.Values()
	}
	rows := f.NumRows()
	runs := parallel.Chunks(len(grid), parallel.Workers(workers))
	err = parallel.ForEach(ctx, workers, len(runs), func(ri int) error {
		lo, hi := runs[ri][0], runs[ri][1]
		open := make([]int32, 0, hi-lo)
		for g := lo; g < hi; g++ {
			open = append(open, int32(g))
		}
		w := walker{fi: fi, tree: tree, cols: cols, sum: make([]float64, len(grid))}
		root := w.mirror(tree.Root, grid, open)
		for r := 0; r < rows; r++ {
			if r%(1<<16) == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			w.walk(root, r)
		}
		for g := lo; g < hi; g++ {
			grid[g].Effect = w.sum[g] / float64(rows)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return grid, nil
}

// walker descends rows with the feature of interest fi set to a run of
// grid values at once, summing each grid point's predictions.
type walker struct {
	fi   int
	tree *cart.Tree
	cols [][]float64
	sum  []float64 // by grid index
}

// wnode mirrors a tree node for one run of grid points. Which of them
// can reach the node depends only on the splits on fi above it, so the
// mirror settles them once instead of once per row.
type wnode struct {
	n           *cart.Node
	left, right *wnode  // nil where none of the run's points is open
	open        []int32 // at a leaf: the grid points that reach it
}

// mirror builds the wnode of n with the grid points in open able to
// reach it, or nil when open is empty.
func (w *walker) mirror(n *cart.Node, grid []Point, open []int32) *wnode {
	if len(open) == 0 {
		return nil
	}
	m := &wnode{n: n}
	if n.IsLeaf() {
		m.open = open
		return m
	}
	left, right := open, open
	if n.Feature == w.fi {
		left, right = nil, nil
		for _, g := range open {
			if w.tree.GoesLeft(n, grid[g].Value) {
				left = append(left, g)
			} else {
				right = append(right, g)
			}
		}
	}
	m.left, m.right = w.mirror(n.Left, grid, left), w.mirror(n.Right, grid, right)
	return m
}

// walk adds row r's prediction at every grid point open below m to
// that point's sum: splits on fi follow both children, every other
// split follows the row's own value.
func (w *walker) walk(m *wnode, r int) {
	for m != nil {
		n := m.n
		switch {
		case n.IsLeaf():
			for _, g := range m.open {
				w.sum[g] += n.Value
			}
			return
		case n.Feature == w.fi:
			w.walk(m.left, r)
			m = m.right
		case w.tree.GoesLeft(n, w.cols[n.Feature][r]):
			m = m.left
		default:
			m = m.right
		}
	}
}

// continuousGrid returns quantile-spaced probe points over the finite
// cells of data: for i in [0, gridSize) the order statistic of rank
// int(i/(gridSize-1)·(n-1)) (rank 0 when gridSize is 1), duplicates
// dropped. Non-finite cells are no probe points; a column without
// finite cells yields no grid.
func continuousGrid(data []float64, gridSize int) []Point {
	vals := make([]float64, 0, len(data))
	for _, v := range data {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return nil
	}
	var pts []Point
	prev := 0
	for i := 0; i < gridSize; i++ {
		p := 0.0
		if gridSize > 1 {
			p = float64(i) / float64(gridSize-1)
		}
		// The ranks ascend, and selecting rank prev left every cell at
		// or below it in vals[:prev+1], so each search starts there.
		k := int(p * float64(len(vals)-1))
		v := selectRank(vals[prev:], k-prev)
		prev = k
		if len(pts) == 0 || v != pts[len(pts)-1].Value {
			pts = append(pts, Point{Value: v})
		}
	}
	return pts
}

// selectRank reorders the NaN-free slice a so that a[k] holds the value
// an ascending sort would put there, nothing in a[:k] is greater and
// nothing in a[k+1:] is smaller, and returns a[k]. It is a quickselect
// with a median-of-three pivot; should the pivots keep landing badly,
// the budget runs out and the remaining range is sorted instead.
func selectRank(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for budget := 2 * bits.Len(uint(len(a))); lo < hi; budget-- {
		if budget == 0 {
			sort.Float64s(a[lo : hi+1])
			break
		}
		pivot := median3(a[lo], a[lo+(hi-lo)/2], a[hi])
		// Hoare partition; both scans stop at the pivot's value, so
		// heavy ties still split near the middle. Afterwards
		// a[lo:j+1] <= pivot, a[i:hi+1] >= pivot, and a[j+1:i] == pivot.
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return a[k]
		}
	}
	return a[k]
}

func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		return a
	}
	return b
}

// LevelEffect summarizes the adjusted metric for one level of the
// variable of interest.
type LevelEffect struct {
	Level string
	// Mean is the standardized (confounder-adjusted) mean metric.
	Mean float64
	// StdDev is the spread of the per-stratum level means: the error-bar
	// analogue of Fig 15.
	StdDev float64
	// Peak is the standardized high quantile (95th) of the metric,
	// the paper's mu_max spare-capacity proxy.
	Peak float64
	// Strata counts how many covariate strata contained this level.
	Strata int
	// N is the number of underlying observations.
	N int
}

// Standardize computes direct-standardized effects of the categorical
// variable `of` on `metric`, adjusting for the categorical covariates.
// Continuous covariates must be pre-binned into categorical columns
// (see frame helpers); this mirrors the paper's
// "Metric ~ X1, N(X2), ..., N(Xn)" notation.
//
// Only strata containing at least two distinct levels of `of` inform the
// contrast; weighting across strata is by total stratum size, which is
// shared by all levels — so the confounders' composition no longer
// differs between levels.
func Standardize(f *frame.Frame, metric, of string, covariates []string) ([]LevelEffect, error) {
	oc, err := f.Col(of)
	if err != nil {
		return nil, err
	}
	if oc.Kind == frame.Continuous {
		return nil, fmt.Errorf("pdp: variable of interest %q must be categorical", of)
	}
	mc, err := f.Col(metric)
	if err != nil {
		return nil, err
	}
	if len(covariates) == 0 {
		return nil, errors.New("pdp: need at least one covariate to standardize over")
	}
	covCols := make([]*frame.Column, len(covariates))
	for i, name := range covariates {
		c, err := f.Col(name)
		if err != nil {
			return nil, err
		}
		if c.Kind == frame.Continuous {
			return nil, fmt.Errorf("pdp: covariate %q is continuous; bin it first", name)
		}
		covCols[i] = c
	}

	// Stratum key = joint covariate levels.
	type cell struct {
		values map[int][]float64 // level of `of` -> metric values
		n      int
	}
	strata := map[string]*cell{}
	keyBuf := make([]byte, 0, 32)
	for r := 0; r < f.NumRows(); r++ {
		keyBuf = keyBuf[:0]
		for _, c := range covCols {
			v := c.Code(r)
			keyBuf = append(keyBuf, byte(v), byte(v>>8), '|')
		}
		k := string(keyBuf)
		s := strata[k]
		if s == nil {
			s = &cell{values: map[int][]float64{}}
			strata[k] = s
		}
		lvl := oc.Code(r)
		s.values[lvl] = append(s.values[lvl], mc.Data[r])
		s.n++
	}

	nLevels := len(oc.Levels)
	// Accumulate stratum-weighted means and per-stratum level means,
	// visiting strata in sorted key order: the weighted sums below are
	// float accumulations, so map iteration order would leak into the
	// low bits of every standardized effect.
	keys := make([]string, 0, len(strata))
	for k := range strata {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	wSum := make([]float64, nLevels)
	wTot := make([]float64, nLevels)
	perStratumMeans := make([][]float64, nLevels)
	perStratumPeaks := make([][]float64, nLevels)
	nobs := make([]int, nLevels)
	strataCount := make([]int, nLevels)
	for _, k := range keys {
		s := strata[k]
		if len(s.values) < 2 {
			// Stratum observes only one level: it cannot inform a
			// within-stratum contrast, so it is dropped (the paper's
			// tree path likewise conditions on contexts where the
			// decision variable actually varies).
			continue
		}
		w := float64(s.n)
		for lvl := 0; lvl < nLevels; lvl++ {
			vals := s.values[lvl]
			if len(vals) == 0 {
				continue
			}
			m := stats.Mean(vals)
			wSum[lvl] += w * m
			wTot[lvl] += w
			perStratumMeans[lvl] = append(perStratumMeans[lvl], m)
			pk, err := stats.Quantile(vals, 0.95)
			if err != nil {
				return nil, err
			}
			perStratumPeaks[lvl] = append(perStratumPeaks[lvl], pk)
			nobs[lvl] += len(vals)
			strataCount[lvl]++
		}
	}
	out := make([]LevelEffect, 0, nLevels)
	for lvl := 0; lvl < nLevels; lvl++ {
		if wTot[lvl] == 0 {
			continue
		}
		peak := 0.0
		if len(perStratumPeaks[lvl]) > 0 {
			// Standardized peak: weighted mean of per-stratum peaks.
			peak = stats.Mean(perStratumPeaks[lvl])
		}
		out = append(out, LevelEffect{
			Level:  oc.Levels[lvl],
			Mean:   wSum[lvl] / wTot[lvl],
			StdDev: stats.StdDev(perStratumMeans[lvl]),
			Peak:   peak,
			Strata: strataCount[lvl],
			N:      nobs[lvl],
		})
	}
	if len(out) == 0 {
		return nil, errors.New("pdp: no stratum contains two levels of the variable of interest; cannot adjust")
	}
	return out, nil
}

// PairedContrast returns the per-stratum mean differences of metric
// between two levels of the categorical variable `of`, over strata
// defined by the joint covariate levels. Only strata observing both
// levels contribute one difference each — the paired sample on which a
// significance test quantifies "the influence of this parameter after
// normalization" (Section V-C).
func PairedContrast(f *frame.Frame, metric, of, levelA, levelB string, covariates []string) ([]float64, error) {
	oc, err := f.Col(of)
	if err != nil {
		return nil, err
	}
	if oc.Kind == frame.Continuous {
		return nil, fmt.Errorf("pdp: variable of interest %q must be categorical", of)
	}
	idxA, idxB := -1, -1
	for i, lvl := range oc.Levels {
		switch lvl {
		case levelA:
			idxA = i
		case levelB:
			idxB = i
		}
	}
	if idxA < 0 || idxB < 0 {
		return nil, fmt.Errorf("pdp: levels %q/%q not found in %q", levelA, levelB, of)
	}
	mc, err := f.Col(metric)
	if err != nil {
		return nil, err
	}
	if len(covariates) == 0 {
		return nil, errors.New("pdp: need at least one covariate to stratify")
	}
	covCols := make([]*frame.Column, len(covariates))
	for i, name := range covariates {
		c, err := f.Col(name)
		if err != nil {
			return nil, err
		}
		if c.Kind == frame.Continuous {
			return nil, fmt.Errorf("pdp: covariate %q is continuous; bin it first", name)
		}
		covCols[i] = c
	}
	type cell struct {
		sumA, sumB float64
		nA, nB     int
	}
	strata := map[string]*cell{}
	keyBuf := make([]byte, 0, 32)
	for r := 0; r < f.NumRows(); r++ {
		lvl := oc.Code(r)
		if lvl != idxA && lvl != idxB {
			continue
		}
		keyBuf = keyBuf[:0]
		for _, c := range covCols {
			v := c.Code(r)
			keyBuf = append(keyBuf, byte(v), byte(v>>8), '|')
		}
		k := string(keyBuf)
		s := strata[k]
		if s == nil {
			s = &cell{}
			strata[k] = s
		}
		if lvl == idxA {
			s.sumA += mc.Data[r]
			s.nA++
		} else {
			s.sumB += mc.Data[r]
			s.nB++
		}
	}
	// Emit the per-stratum differences in sorted key order: the paired
	// tests downstream sum them, and float addition order would
	// otherwise vary with map iteration.
	keys := make([]string, 0, len(strata))
	for k := range strata {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var diffs []float64
	for _, k := range keys {
		s := strata[k]
		if s.nA == 0 || s.nB == 0 {
			continue
		}
		diffs = append(diffs, s.sumA/float64(s.nA)-s.sumB/float64(s.nB))
	}
	if len(diffs) == 0 {
		return nil, errors.New("pdp: no stratum observes both levels")
	}
	return diffs, nil
}

// BinContinuous adds a categorical companion column binning a continuous
// column at the given edges, labelled "lo-hi". The new column is named
// name+"_bin". Returns the new column's name.
func BinContinuous(f *frame.Frame, name string, edges []float64) (string, error) {
	c, err := f.Col(name)
	if err != nil {
		return "", err
	}
	if c.Kind != frame.Continuous {
		return "", fmt.Errorf("pdp: column %q is not continuous", name)
	}
	if len(edges) < 2 {
		return "", errors.New("pdp: need at least two edges")
	}
	labels := make([]string, len(edges)-1)
	for i := range labels {
		labels[i] = fmt.Sprintf("%g-%g", edges[i], edges[i+1])
	}
	codes := make([]int, f.NumRows())
	for r, v := range c.Data {
		codes[r] = binIndex(edges, v)
	}
	binName := name + "_bin"
	// In-place attachment is this helper's documented contract; callers
	// that hold a shared frame ShallowClone before calling (see skucmp).
	//lint:allow frameclone BinContinuous is the documented in-place binning mutator
	if err := f.AddNominalInts(binName, codes, labels); err != nil {
		return "", err
	}
	return binName, nil
}

func binIndex(edges []float64, x float64) int {
	n := len(edges) - 1
	if math.IsNaN(x) || x < edges[0] {
		return 0
	}
	for i := 1; i < n; i++ {
		if x < edges[i] {
			return i - 1
		}
	}
	if x < edges[n] {
		return n - 1
	}
	return n - 1
}
