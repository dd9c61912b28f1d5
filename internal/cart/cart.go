// Package cart implements Classification and Regression Trees (Breiman
// et al., 1984) from scratch: the learner behind the paper's multi-factor
// (MF) analysis, equivalent in role to the R rpart package the authors
// used.
//
// Capabilities:
//   - regression trees (variance / SSE splitting) and classification
//     trees (Gini impurity);
//   - continuous, ordinal, and nominal features; nominal splits use the
//     optimal category-ordering theorem (sort categories by mean response
//     and scan, which is exact for regression and two-class problems);
//   - missing-value tolerance: non-finite feature cells are treated as
//     missing — splits are searched over available cases only, and
//     missing rows follow the majority child (rpart's surrogate-free
//     fallback), at training and prediction time alike;
//   - stopping rules (max depth, minimum node/leaf sizes, minimum
//     relative improvement, mirroring rpart's cp);
//   - weakest-link cost-complexity pruning;
//   - relative variable importance (rpart-style, scaled to 100);
//   - leaf extraction and row→leaf assignment, which the paper uses to
//     cluster racks with similar failure behaviour (Q1).
//
// Performance model: two split-search engines share one growing loop.
// The exact engine sorts each continuous/ordinal feature once per Fit;
// child nodes inherit the sorted order by a stable in-place partition
// (rank filtering) instead of re-sorting. The histogram-binned engine
// (LightGBM-style) engages automatically at fleet scale (Config.Split,
// AutoBinRows): continuous features are quantized once to at most
// Config.Bins quantile bins, nodes accumulate per-bin statistics and
// scan bins instead of rows, and each child's histogram is built from
// the smaller side and subtracted from the parent's for the sibling.
// Nominal and ordinal features use their level sets as bins, so their
// search stays exact in either engine. Null bitmaps on frame columns
// are honored natively: bitmap-marked cells code to the missing
// sentinel without materializing NaNs. In both engines the per-node
// search fans the candidate features across a bounded worker pool
// (Config.Workers), and trees are byte-identical for every worker
// count: the winning split is reduced in feature order with the same
// strict impurity tie-break the serial scan applies.
package cart

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"rainshine/internal/frame"
	"rainshine/internal/parallel"
)

// Task selects the tree type.
type Task int

const (
	// Regression grows a tree minimizing sum of squared errors.
	Regression Task = iota
	// Classification grows a tree minimizing Gini impurity. The target
	// column must be categorical.
	Classification
)

// SplitMethod selects the split-search engine.
type SplitMethod int

const (
	// SplitAuto (the zero value) picks the engine by training size:
	// exact below AutoBinRows rows, binned at or above. Small fits —
	// everything the paper-scale pipelines feed through Q1/Q2 — keep
	// the exact engine and stay byte-identical with earlier releases.
	SplitAuto SplitMethod = iota
	// SplitExact forces the presort-based exact search.
	SplitExact
	// SplitBinned forces the histogram-binned search. Continuous
	// features are quantized to at most Config.Bins quantile bins;
	// nominal and ordinal features use their level sets as bins, which
	// keeps their search exact. Falls back to the exact engine when any
	// categorical feature has more than 255 levels (the level index
	// must fit a byte alongside the missing sentinel).
	SplitBinned
)

const (
	// DefaultBins is the bin budget per continuous feature when
	// Config.Bins is zero: the largest count a byte code can address
	// once 255 is reserved for missing cells.
	DefaultBins = 255
	// AutoBinRows is the training size at which SplitAuto switches
	// from exact to binned search: 4 full frame chunks, past which the
	// O(n log n) presort and per-node O(n) scans dominate fit time.
	AutoBinRows = 4 * frame.ChunkRows
	// missingCode is the reserved byte code for missing feature cells
	// in the binned engine.
	missingCode = 255
)

// BinsRangeError reports a Config.Bins value outside the representable
// range. The binned engine needs at least two bins to express a split
// and at most 255 so every bin code plus the missing sentinel fits a
// byte. Option and flag layers surface this at configuration time
// (errors.As-matchable); Config.withDefaults still clamps silently for
// callers that construct a Config directly.
type BinsRangeError struct {
	Bins int
}

func (e *BinsRangeError) Error() string {
	return fmt.Sprintf("cart: bins %d out of range [2, 255] (0 means the default %d)", e.Bins, DefaultBins)
}

// ValidateBins checks a bin-budget setting at configuration time: 0 is
// "use DefaultBins"; anything else must land in [2, 255]. Returns a
// *BinsRangeError otherwise.
func ValidateBins(n int) error {
	if n == 0 || (n >= 2 && n <= 255) {
		return nil
	}
	return &BinsRangeError{Bins: n}
}

// Config holds the stopping and growth rules.
type Config struct {
	Task Task
	// MaxDepth limits tree depth; root is depth 0. Zero means 10.
	MaxDepth int
	// MinSplit is the minimum number of rows a node needs before a
	// split is attempted. Zero means 20 (rpart default).
	MinSplit int
	// MinLeaf is the minimum number of rows in each child. Zero means
	// MinSplit/3, floor 1 (rpart default).
	MinLeaf int
	// CP is the complexity parameter: a split must reduce the tree's
	// total impurity by at least CP * root impurity. Zero means 0.01
	// (rpart default). Negative means no improvement threshold.
	CP float64
	// Workers bounds the goroutines used by the per-node split search
	// (and by CrossValidate's fold fan-out). Below 1 means GOMAXPROCS;
	// 1 forces the serial path. The fitted tree is byte-identical for
	// every worker count.
	Workers int
	// Split selects the split-search engine; see SplitMethod. The zero
	// value (SplitAuto) switches by training size at AutoBinRows.
	Split SplitMethod
	// Bins caps the number of histogram bins per continuous feature in
	// the binned engine. Zero means DefaultBins; values are clamped to
	// [2, 255]. Ignored by the exact engine.
	Bins int
}

func (c Config) withDefaults() Config {
	if c.MaxDepth == 0 {
		c.MaxDepth = 10
	}
	if c.MinSplit == 0 {
		c.MinSplit = 20
	}
	if c.MinLeaf == 0 {
		c.MinLeaf = c.MinSplit / 3
		if c.MinLeaf < 1 {
			c.MinLeaf = 1
		}
	}
	if c.CP == 0 {
		c.CP = 0.01
	}
	if c.Bins == 0 {
		c.Bins = DefaultBins
	}
	if c.Bins < 2 {
		c.Bins = 2
	}
	if c.Bins > 255 {
		c.Bins = 255
	}
	return c
}

// Feature describes one predictor used by a tree.
type Feature struct {
	Name   string
	Kind   frame.Kind
	Levels []string // for categorical features
}

// Node is one tree node. Leaves have Left == Right == nil.
type Node struct {
	// Split definition (internal nodes only).
	Feature   int     // index into Tree.Features
	Threshold float64 // continuous/ordinal: left if x <= Threshold
	LeftSet   []uint64
	// DefaultLeft routes values unseen at training time (e.g. a nominal
	// level absent from this node) toward the larger child.
	DefaultLeft bool

	Left, Right *Node

	// Statistics (all nodes).
	N           int
	Value       float64   // mean response (regression) or majority class index
	Impurity    float64   // SSE (regression) or weighted Gini (classification)
	ClassCounts []float64 // classification only

	// LeafID numbers leaves left-to-right; -1 for internal nodes.
	LeafID int
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.Left == nil }

// inLeftSet reports whether category c routes left.
func (n *Node) inLeftSet(c int) bool {
	w := c / 64
	if w < 0 || w >= len(n.LeftSet) {
		return false
	}
	return n.LeftSet[w]&(1<<(uint(c)%64)) != 0
}

// Tree is a fitted CART model.
type Tree struct {
	Root     *Node
	Features []Feature
	Target   string
	Task     Task
	// ClassLevels holds target levels for classification trees.
	ClassLevels []string
	// importanceRaw accumulates impurity decrease per feature.
	importanceRaw []float64
	leaves        []*Node
}

// Fit grows a tree predicting target from the named feature columns of
// f. It is FitContext with context.Background(); use that variant to
// make a long fit cancellable.
func Fit(f *frame.Frame, target string, features []string, cfg Config) (*Tree, error) {
	return FitContext(context.Background(), f, target, features, cfg)
}

// FitContext is Fit under a context: when ctx is canceled the split
// search stops at its next checkpoint and the context's error is
// returned instead of a partially grown tree.
func FitContext(ctx context.Context, f *frame.Frame, target string, features []string, cfg Config) (*Tree, error) {
	cfg = cfg.withDefaults()
	if f.NumRows() == 0 {
		return nil, errors.New("cart: empty frame")
	}
	if len(features) == 0 {
		return nil, errors.New("cart: no features")
	}
	tc, err := f.Col(target)
	if err != nil {
		return nil, err
	}
	t := &Tree{Target: target, Task: cfg.Task}
	// Materialize the target (Values decodes typed label columns to
	// dense float64 class indices). Missing targets — in-band sentinels
	// or ingest null marks alike — are an error: a row without a
	// response cannot train.
	var y []float64
	switch cfg.Task {
	case Regression:
	case Classification:
		if tc.Kind == frame.Continuous {
			return nil, fmt.Errorf("cart: classification target %q must be categorical", target)
		}
		t.ClassLevels = tc.Levels
	default:
		return nil, fmt.Errorf("cart: unknown task %d", cfg.Task)
	}
	for i, n := 0, tc.Len(); i < n; i++ {
		if tc.Missing(i) {
			return nil, fmt.Errorf("cart: missing target at row %d", i)
		}
	}
	y = tc.Values()
	// Materialize features.
	colRefs := make([]*frame.Column, len(features))
	for i, name := range features {
		c, err := f.Col(name)
		if err != nil {
			return nil, err
		}
		if name == target {
			return nil, fmt.Errorf("cart: target %q used as feature", name)
		}
		// Missing feature cells are legal: they are handled by
		// available-case splitting and majority-side routing.
		colRefs[i] = c
		t.Features = append(t.Features, Feature{Name: name, Kind: c.Kind, Levels: c.Levels})
	}
	t.importanceRaw = make([]float64, len(features))

	if chooseBinned(cfg, f.NumRows(), t.Features) {
		return fitBinned(ctx, cfg, t, colRefs, y)
	}

	// Exact engine: flatten each feature to a dense value slice, with
	// missing cells — null marks and in-band sentinels alike — surfaced
	// as the NaN sentinel the scans expect.
	cols := make([][]float64, len(colRefs))
	for i, c := range colRefs {
		cols[i] = unknownLevelsMissing(t.Features[i], c.Values())
	}
	b := &builder{cfg: cfg, ctx: ctx, tree: t, y: y, cols: cols}
	if cfg.Task == Classification {
		b.nClasses = len(t.ClassLevels)
	}
	if err := b.prepare(f.NumRows()); err != nil {
		return nil, err
	}
	root := b.node(b.rows.idx)
	b.rootImpurity = root.Impurity
	b.grow(root, b.rows, 0)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t.Root = root
	t.numberLeaves()
	return t, nil
}

// nodeRows is the per-node view of the training rows: the row set in
// partition order, plus — for every continuous/ordinal feature — the
// finite subset presorted by (value, row index). Children inherit the
// sorted order through a stable in-place partition, so sorting happens
// exactly once per Fit.
type nodeRows struct {
	idx    []int
	sorted [][]int32 // per feature; nil for nominal features
}

type builder struct {
	cfg          Config
	ctx          context.Context
	tree         *Tree
	y            []float64
	cols         [][]float64
	nClasses     int
	rootImpurity float64

	rows    nodeRows
	workers int

	// Reused builder-lifetime buffers (the tree grows serially; only the
	// per-node feature search fans out, through per-worker scratch).
	side      []bool    // row → routed to the left child
	idxTmp    []int     // partition scratch for idx
	sortTmps  [][]int32 // per worker: partition scratch for sorted lists
	featSplit []split
	featOK    []bool
	scratch   []*scratch
}

// scratch holds one worker's reusable split-search buffers, sized to the
// largest level/class cardinality the tree can meet.
type scratch struct {
	left, total, right []float64 // class counts for numeric scans
	counts             []int     // nominal: per-category row counts
	score              []float64 // nominal: category order keys
	catSum, catSq      []float64 // nominal regression accumulators
	catClass           [][]float64
	present            []int
}

// initBuffers sizes the builder-lifetime scratch (partition side table,
// per-worker split/search buffers) for nRows training rows. Shared by
// prepare and by the incremental refitter, which supplies its own
// presorted row views instead of re-sorting.
func (b *builder) initBuffers(nRows int) {
	nf := len(b.cols)
	b.workers = parallel.Workers(b.cfg.Workers)
	b.side = make([]bool, nRows)
	b.idxTmp = make([]int, nRows)
	b.featSplit = make([]split, nf)
	b.featOK = make([]bool, nf)

	slots := b.workers
	if slots > nf {
		slots = nf
	}
	if slots < 1 {
		slots = 1
	}
	maxLevels := 0
	for fi := range b.cols {
		if n := len(b.tree.Features[fi].Levels); n > maxLevels {
			maxLevels = n
		}
	}
	b.scratch = make([]*scratch, slots)
	b.sortTmps = make([][]int32, slots)
	for w := range b.scratch {
		b.scratch[w] = newScratch(b.nClasses, maxLevels)
		b.sortTmps[w] = make([]int32, 0, nRows)
	}
}

// prepare builds the root row view: every feature's finite rows sorted
// once by (value, row index) — the canonical order rank filtering
// preserves down the tree. The per-feature sorts run through the pool.
func (b *builder) prepare(nRows int) error {
	nf := len(b.cols)
	b.initBuffers(nRows)

	idx := make([]int, nRows)
	for i := range idx {
		idx[i] = i
	}
	b.rows = nodeRows{idx: idx, sorted: make([][]int32, nf)}

	return parallel.ForEach(b.ctx, b.cfg.Workers, nf, func(fi int) error {
		if b.tree.Features[fi].Kind == frame.Nominal {
			return nil
		}
		col := b.cols[fi]
		s := make([]int32, 0, nRows)
		for r := 0; r < nRows; r++ {
			if isFinite(col[r]) {
				s = append(s, int32(r))
			}
		}
		slices.SortFunc(s, func(a, c int32) int {
			va, vc := col[a], col[c]
			switch {
			case va < vc:
				return -1
			case va > vc:
				return 1
			case a < c: // total order: ties break by row index
				return -1
			case a > c:
				return 1
			}
			return 0
		})
		b.rows.sorted[fi] = s
		return nil
	})
}

func newScratch(nClasses, maxLevels int) *scratch {
	sc := &scratch{
		counts:  make([]int, maxLevels),
		score:   make([]float64, maxLevels),
		catSum:  make([]float64, maxLevels),
		catSq:   make([]float64, maxLevels),
		present: make([]int, 0, maxLevels),
	}
	if nClasses > 0 {
		sc.left = make([]float64, nClasses)
		sc.total = make([]float64, nClasses)
		sc.right = make([]float64, nClasses)
		sc.catClass = make([][]float64, maxLevels)
	}
	return sc
}

// node computes leaf statistics for the rows in idx.
func (b *builder) node(idx []int) *Node {
	n := &Node{N: len(idx), Feature: -1, LeafID: -1}
	if b.cfg.Task == Regression {
		sum, sq := 0.0, 0.0
		for _, r := range idx {
			v := b.y[r]
			sum += v
			sq += v * v
		}
		mean := sum / float64(len(idx))
		n.Value = mean
		n.Impurity = sq - sum*mean // SSE = sum(y^2) - n*mean^2
		if n.Impurity < 0 {
			n.Impurity = 0 // guard against rounding
		}
		return n
	}
	counts := make([]float64, b.nClasses)
	for _, r := range idx {
		counts[int(b.y[r])]++
	}
	n.ClassCounts = counts
	best, bestC := -1.0, 0
	ss := 0.0
	total := float64(len(idx))
	for c, cnt := range counts {
		if cnt > best {
			best, bestC = cnt, c
		}
		p := cnt / total
		ss += p * p
	}
	n.Value = float64(bestC)
	n.Impurity = total * (1 - ss) // N-weighted Gini
	return n
}

// grow recursively splits node over the rows view.
func (b *builder) grow(n *Node, rows nodeRows, depth int) {
	if depth >= b.cfg.MaxDepth || len(rows.idx) < b.cfg.MinSplit || n.Impurity <= 1e-12 {
		return
	}
	sp := b.bestSplit(rows)
	if sp.feature < 0 {
		return
	}
	minGain := 0.0
	if b.cfg.CP > 0 {
		minGain = b.cfg.CP * b.rootImpurity
	}
	if sp.gain < minGain {
		return
	}
	n.Feature = sp.feature
	n.Threshold = sp.threshold
	n.LeftSet = sp.leftSet
	b.tree.importanceRaw[sp.feature] += sp.gain

	left, right := b.partition(n, rows)
	n.Left = b.node(left.idx)
	n.Right = b.node(right.idx)
	b.grow(n.Left, left, depth+1)
	b.grow(n.Right, right, depth+1)
}

// partition routes the node's rows through its split. Rows with a
// missing split value follow the majority child, the same route unseen
// values take at prediction time. The row set is rearranged in place to
// [left | right] (each side keeping available rows in order, then the
// missing rows), and every feature's presorted list is stably split so
// children never re-sort.
func (b *builder) partition(n *Node, rows nodeRows) (left, right nodeRows) {
	feat := b.tree.Features[n.Feature]
	col := b.cols[n.Feature]
	idx := rows.idx

	nl, nr, nm := 0, 0, 0
	for _, r := range idx {
		v := col[r]
		switch {
		case !isFinite(v):
			nm++
		case routeLeft(feat.Kind, n, v):
			nl++
		default:
			nr++
		}
	}
	n.DefaultLeft = nl >= nr
	leftTotal := nl
	if n.DefaultLeft {
		leftTotal += nm
	}
	// Scatter into [finite-left, missing?][finite-right, missing?],
	// preserving the original row order within each group — the exact
	// sequence the append-based partition produced.
	tmp := b.idxTmp[:len(idx)]
	pLeft, pRight := 0, leftTotal
	pMiss := nl
	if !n.DefaultLeft {
		pMiss = leftTotal + nr
	}
	for _, r := range idx {
		v := col[r]
		switch {
		case !isFinite(v):
			tmp[pMiss] = r
			pMiss++
			b.side[r] = n.DefaultLeft
		case routeLeft(feat.Kind, n, v):
			tmp[pLeft] = r
			pLeft++
			b.side[r] = true
		default:
			tmp[pRight] = r
			pRight++
			b.side[r] = false
		}
	}
	copy(idx, tmp)

	left = nodeRows{idx: idx[:leftTotal], sorted: make([][]int32, len(rows.sorted))}
	right = nodeRows{idx: idx[leftTotal:], sorted: make([][]int32, len(rows.sorted))}

	// Rank filtering: stable in-place partition of each feature's sorted
	// rows by child side; the relative (value, row) order survives, so
	// children reuse it directly. Fanned across the pool — each feature's
	// list is independent and each worker slot has its own spill buffer.
	parallel.ForEachWorker(b.ctx, b.cfg.Workers, len(rows.sorted), func(w, fi int) error {
		s := rows.sorted[fi]
		if s == nil {
			return nil
		}
		spill := b.sortTmps[w][:0]
		k := 0
		for _, r := range s {
			if b.side[r] {
				s[k] = r
				k++
			} else {
				spill = append(spill, r)
			}
		}
		copy(s[k:], spill)
		b.sortTmps[w] = spill[:0]
		left.sorted[fi] = s[:k]
		right.sorted[fi] = s[k:]
		return nil
	})
	return left, right
}

// unknownLevelsMissing returns a feature's training values with every
// unknown level (see unknownLevel) replaced by NaN, so the exact engine
// trains on such cells as missing, the route GoesLeft gives them at
// prediction. The values are copied only when there is one to replace.
func unknownLevelsMissing(ft Feature, vals []float64) []float64 {
	if ft.Kind != frame.Nominal {
		return vals
	}
	var out []float64
	for i, v := range vals {
		if unknownLevel(ft, v) {
			if out == nil {
				out = slices.Clone(vals)
			}
			out[i] = math.NaN()
		}
	}
	if out == nil {
		return vals
	}
	return out
}

// unknownLevel reports whether v is a finite nominal code outside the
// feature's level table (-1, len(Levels), ...).
func unknownLevel(ft Feature, v float64) bool {
	c := int(v)
	return ft.Kind == frame.Nominal && isFinite(v) && (c < 0 || c >= len(ft.Levels))
}

// isFinite reports whether a feature cell carries a usable value.
func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// chooseBinned decides whether the fit runs on the histogram-binned
// engine. Structural limit: every categorical level index must fit a
// byte code next to the missing sentinel, else the exact engine runs
// regardless of the requested method.
func chooseBinned(cfg Config, rows int, feats []Feature) bool {
	switch cfg.Split {
	case SplitExact:
		return false
	case SplitBinned:
	default: // SplitAuto
		if rows < AutoBinRows {
			return false
		}
	}
	for _, ft := range feats {
		if len(ft.Levels) > missingCode {
			return false
		}
	}
	return true
}

func routeLeft(kind frame.Kind, n *Node, v float64) bool {
	if kind == frame.Nominal {
		return n.inLeftSet(int(v))
	}
	return v <= n.Threshold
}

type split struct {
	feature   int
	threshold float64
	leftSet   []uint64
	gain      float64
}

// bestSplit searches all features for the impurity-minimizing split.
// Features are searched concurrently; the winner is reduced in feature
// order with a strict greater-than on gain, so ties break toward the
// lower feature index exactly as the serial scan does.
func (b *builder) bestSplit(rows nodeRows) split {
	nf := len(b.cols)
	err := parallel.ForEachWorker(b.ctx, b.cfg.Workers, nf, func(w, fi int) error {
		if b.tree.Features[fi].Kind == frame.Nominal {
			b.featSplit[fi], b.featOK[fi] = b.bestNominalSplit(b.scratch[w], fi, rows.idx)
		} else {
			b.featSplit[fi], b.featOK[fi] = b.bestNumericSplit(b.scratch[w], fi, rows.sorted[fi])
		}
		return nil
	})
	best := split{feature: -1}
	if err != nil {
		return best // canceled: stop growing everywhere
	}
	for fi := range b.featSplit {
		if b.featOK[fi] && b.featSplit[fi].gain > best.gain {
			best = b.featSplit[fi]
		}
	}
	return best
}

// bestNumericSplit scans the presorted finite rows of a continuous or
// ordinal feature. Missing cells were excluded when the sorted view was
// built (available-case splitting), and the node's view arrives already
// ordered, so the scan is a single O(n) pass.
func (b *builder) bestNumericSplit(sc *scratch, fi int, sorted []int32) (split, bool) {
	col := b.cols[fi]
	n := len(sorted)
	if n < 2*b.cfg.MinLeaf || n < 2 {
		return split{}, false
	}

	bestPos, bestGain := -1, 0.0
	if b.cfg.Task == Regression {
		totalSum, totalSq := 0.0, 0.0
		for _, r := range sorted {
			totalSum += b.y[r]
			totalSq += b.y[r] * b.y[r]
		}
		parentImp := totalSq - totalSum*totalSum/float64(n)
		leftSum, leftSq := 0.0, 0.0
		for i := 0; i < n-1; i++ {
			r := sorted[i]
			leftSum += b.y[r]
			leftSq += b.y[r] * b.y[r]
			if col[sorted[i]] == col[sorted[i+1]] {
				continue // cannot split between equal values
			}
			nl, nr := i+1, n-i-1
			if nl < b.cfg.MinLeaf || nr < b.cfg.MinLeaf {
				continue
			}
			rightSum := totalSum - leftSum
			rightSq := totalSq - leftSq
			childImp := (leftSq - leftSum*leftSum/float64(nl)) +
				(rightSq - rightSum*rightSum/float64(nr))
			if g := parentImp - childImp; g > bestGain {
				bestGain, bestPos = g, i
			}
		}
	} else {
		// Class-count buffers come from the worker slot's scratch: two
		// numeric scans never share a slot concurrently, so zeroing is
		// the only per-call cost.
		total := sc.total[:b.nClasses]
		left := sc.left[:b.nClasses]
		for cl := range total {
			total[cl] = 0
			left[cl] = 0
		}
		for _, r := range sorted {
			total[int(b.y[r])]++
		}
		parentImp := giniSSE(total, float64(n))
		for i := 0; i < n-1; i++ {
			left[int(b.y[sorted[i]])]++
			if col[sorted[i]] == col[sorted[i+1]] {
				continue
			}
			nl, nr := i+1, n-i-1
			if nl < b.cfg.MinLeaf || nr < b.cfg.MinLeaf {
				continue
			}
			childImp := giniFromLeft(left, total, sc.right[:b.nClasses], float64(nl), float64(nr))
			if g := parentImp - childImp; g > bestGain {
				bestGain, bestPos = g, i
			}
		}
	}
	if bestPos < 0 || bestGain <= 0 {
		return split{}, false
	}
	thr := (col[sorted[bestPos]] + col[sorted[bestPos+1]]) / 2
	return split{feature: fi, threshold: thr, gain: bestGain}, true
}

// giniSSE returns n * Gini for class counts.
func giniSSE(counts []float64, n float64) float64 {
	if n == 0 {
		return 0
	}
	ss := 0.0
	for _, c := range counts {
		p := c / n
		ss += p * p
	}
	return n * (1 - ss)
}

// giniFromLeft computes the summed child impurity, filling the caller's
// right-count buffer instead of allocating.
func giniFromLeft(left, total, right []float64, nl, nr float64) float64 {
	lImp := giniSSE(left, nl)
	for i := range total {
		right[i] = total[i] - left[i]
	}
	return lImp + giniSSE(right[:len(total)], nr)
}

// bestNominalSplit orders categories by mean response (regression) or by
// first-class proportion (classification) and scans boundaries. The
// ordering is provably optimal for regression and two-class targets
// (Breiman et al., Thm 4.5); for multiclass it is a standard heuristic.
// All accumulators come from the worker slot's scratch, so the hot loop
// allocates nothing.
func (b *builder) bestNominalSplit(sc *scratch, fi int, idx []int) (split, bool) {
	col := b.cols[fi]
	// Available-case filtering: rows missing this feature sit out the
	// search and follow the majority child at partition time.
	avail := idx
	for _, r := range idx {
		if !isFinite(col[r]) {
			avail = make([]int, 0, len(idx))
			for _, r2 := range idx {
				if isFinite(col[r2]) {
					avail = append(avail, r2)
				}
			}
			break
		}
	}
	idx = avail
	if len(idx) < 2*b.cfg.MinLeaf || len(idx) < 2 {
		return split{}, false
	}
	nLevels := len(b.tree.Features[fi].Levels)
	counts := sc.counts[:nLevels]
	score := sc.score[:nLevels]
	for c := range counts {
		counts[c] = 0
		score[c] = 0
	}
	if b.cfg.Task == Regression {
		sums := sc.catSum[:nLevels]
		for c := range sums {
			sums[c] = 0
		}
		for _, r := range idx {
			c := int(col[r])
			counts[c]++
			sums[c] += b.y[r]
		}
		for c := range score {
			if counts[c] > 0 {
				score[c] = sums[c] / float64(counts[c])
			}
		}
	} else {
		firstClass := sc.catSum[:nLevels]
		for c := range firstClass {
			firstClass[c] = 0
		}
		for _, r := range idx {
			c := int(col[r])
			counts[c]++
			if int(b.y[r]) == 0 {
				firstClass[c]++
			}
		}
		for c := range score {
			if counts[c] > 0 {
				score[c] = firstClass[c] / float64(counts[c])
			}
		}
	}
	present := sc.present[:0]
	for c, n := range counts {
		if n > 0 {
			present = append(present, c)
		}
	}
	sc.present = present[:0]
	if len(present) < 2 {
		return split{}, false
	}
	slices.SortFunc(present, func(a, c int) int {
		switch {
		case score[a] < score[c]:
			return -1
		case score[a] > score[c]:
			return 1
		}
		return 0
	})

	// Scan over the category ordering: rows are processed category by
	// category, reusing the numeric machinery over a virtual ordering.
	n := len(idx)
	bestGain := 0.0
	bestCut := -1
	if b.cfg.Task == Regression {
		totalSum, totalSq := 0.0, 0.0
		catSum := sc.catSum[:nLevels]
		catSq := sc.catSq[:nLevels]
		for c := range catSum {
			catSum[c] = 0
			catSq[c] = 0
		}
		for _, r := range idx {
			c := int(col[r])
			catSum[c] += b.y[r]
			catSq[c] += b.y[r] * b.y[r]
			totalSum += b.y[r]
			totalSq += b.y[r] * b.y[r]
		}
		parentImp := totalSq - totalSum*totalSum/float64(n)
		leftSum, leftSq, nl := 0.0, 0.0, 0
		for k := 0; k < len(present)-1; k++ {
			c := present[k]
			leftSum += catSum[c]
			leftSq += catSq[c]
			nl += counts[c]
			nr := n - nl
			if nl < b.cfg.MinLeaf || nr < b.cfg.MinLeaf {
				continue
			}
			rightSum := totalSum - leftSum
			rightSq := totalSq - leftSq
			childImp := (leftSq - leftSum*leftSum/float64(nl)) +
				(rightSq - rightSum*rightSum/float64(nr))
			if g := parentImp - childImp; g > bestGain {
				bestGain, bestCut = g, k
			}
		}
	} else {
		total := sc.total[:b.nClasses]
		for cl := range total {
			total[cl] = 0
		}
		catClass := sc.catClass[:nLevels]
		for _, r := range idx {
			c := int(col[r])
			if catClass[c] == nil {
				catClass[c] = make([]float64, b.nClasses)
			}
			catClass[c][int(b.y[r])]++
			total[int(b.y[r])]++
		}
		parentImp := giniSSE(total, float64(n))
		left := sc.left[:b.nClasses]
		for cl := range left {
			left[cl] = 0
		}
		nl := 0
		for k := 0; k < len(present)-1; k++ {
			c := present[k]
			for cl := range left {
				left[cl] += catClass[c][cl]
			}
			nl += counts[c]
			nr := n - nl
			if nl < b.cfg.MinLeaf || nr < b.cfg.MinLeaf {
				continue
			}
			childImp := giniFromLeft(left, total, sc.right[:b.nClasses], float64(nl), float64(nr))
			if g := parentImp - childImp; g > bestGain {
				bestGain, bestCut = g, k
			}
		}
		// Reset the per-category class counts we touched for the next
		// call on this worker slot.
		for _, cc := range catClass {
			for cl := range cc {
				cc[cl] = 0
			}
		}
	}
	if bestCut < 0 || bestGain <= 0 {
		return split{}, false
	}
	set := make([]uint64, (nLevels+63)/64)
	for k := 0; k <= bestCut; k++ {
		c := present[k]
		set[c/64] |= 1 << (uint(c) % 64)
	}
	return split{feature: fi, leftSet: set, gain: bestGain}, true
}

// numberLeaves assigns LeafID values in left-to-right order and caches
// the leaf list.
func (t *Tree) numberLeaves() {
	t.leaves = t.leaves[:0]
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			n.LeafID = len(t.leaves)
			t.leaves = append(t.leaves, n)
			return
		}
		n.LeafID = -1
		walk(n.Left)
		walk(n.Right)
	}
	walk(t.Root)
}

// Leaves returns the tree's leaves in left-to-right order.
func (t *Tree) Leaves() []*Node { return t.leaves }

// NumLeaves returns the number of leaves.
func (t *Tree) NumLeaves() int { return len(t.leaves) }

// Depth returns the depth of the tree (root = 0).
func (t *Tree) Depth() int {
	var d func(n *Node) int
	d = func(n *Node) int {
		if n.IsLeaf() {
			return 0
		}
		l, r := d(n.Left), d(n.Right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return d(t.Root)
}

// GoesLeft reports whether value v of internal node n's split feature
// routes to n's left child. It is the tree's one routing rule: a
// missing (non-finite) value or a nominal code outside the training
// levels follows DefaultLeft, a nominal level follows LeftSet, and any
// other value goes left when v <= Threshold.
func (t *Tree) GoesLeft(n *Node, v float64) bool {
	feat := &t.Features[n.Feature]
	switch {
	case !isFinite(v):
		// Missing value: follow the majority child, mirroring the
		// training-time assignment.
		return n.DefaultLeft
	case feat.Kind == frame.Nominal:
		c := int(v)
		if c < 0 || c >= len(feat.Levels) {
			return n.DefaultLeft
		}
		return n.inLeftSet(c)
	default:
		return v <= n.Threshold
	}
}

// leafFor routes one row (given as per-feature values) to its leaf.
func (t *Tree) leafFor(x []float64) *Node {
	n := t.Root
	for !n.IsLeaf() {
		if t.GoesLeft(n, x[n.Feature]) {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n
}

// Predict returns the model output for one row of feature values, in the
// order of Tree.Features. For regression this is the leaf mean; for
// classification the majority class index.
func (t *Tree) Predict(x []float64) (float64, error) {
	if len(x) != len(t.Features) {
		return 0, fmt.Errorf("cart: got %d features, want %d", len(x), len(t.Features))
	}
	return t.leafFor(x).Value, nil
}

// PredictProba returns the class-probability vector for one row of a
// classification tree (the class frequencies of the reached leaf).
func (t *Tree) PredictProba(x []float64) ([]float64, error) {
	if t.Task != Classification {
		return nil, errors.New("cart: PredictProba requires a classification tree")
	}
	if len(x) != len(t.Features) {
		return nil, fmt.Errorf("cart: got %d features, want %d", len(x), len(t.Features))
	}
	leaf := t.leafFor(x)
	out := make([]float64, len(leaf.ClassCounts))
	total := 0.0
	for _, c := range leaf.ClassCounts {
		total += c
	}
	if total == 0 {
		return out, nil
	}
	for i, c := range leaf.ClassCounts {
		out[i] = c / total
	}
	return out, nil
}

// ProbaFrame returns, for every row of f, the probability of the class
// with the given index (classification trees only). It is
// ProbaFrameContext with context.Background() and a single worker.
func (t *Tree) ProbaFrame(f *frame.Frame, class int) ([]float64, error) {
	return t.ProbaFrameContext(context.Background(), f, class, 1)
}

// ProbaFrameContext is ProbaFrame with the per-row routing fanned over
// workers (rows are independent; the output is index-addressed, so the
// result is identical for every worker count).
func (t *Tree) ProbaFrameContext(ctx context.Context, f *frame.Frame, class, workers int) ([]float64, error) {
	if t.Task != Classification {
		return nil, errors.New("cart: ProbaFrame requires a classification tree")
	}
	if class < 0 || class >= len(t.ClassLevels) {
		return nil, fmt.Errorf("cart: class %d out of range [0,%d)", class, len(t.ClassLevels))
	}
	cols, err := t.featureCols(f)
	if err != nil {
		return nil, err
	}
	out := make([]float64, f.NumRows())
	err = t.forEachRowChunk(ctx, workers, f.NumRows(), cols, func(r int, leaf *Node) {
		total := 0.0
		for _, cc := range leaf.ClassCounts {
			total += cc
		}
		if total > 0 {
			out[r] = leaf.ClassCounts[class] / total
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PredictFrame predicts every row of f, which must contain the tree's
// feature columns. It is PredictFrameContext with context.Background()
// and a single worker.
func (t *Tree) PredictFrame(f *frame.Frame) ([]float64, error) {
	return t.PredictFrameContext(context.Background(), f, 1)
}

// PredictFrameContext is PredictFrame with the per-row routing fanned
// over workers; results are identical for every worker count.
func (t *Tree) PredictFrameContext(ctx context.Context, f *frame.Frame, workers int) ([]float64, error) {
	cols, err := t.featureCols(f)
	if err != nil {
		return nil, err
	}
	out := make([]float64, f.NumRows())
	err = t.forEachRowChunk(ctx, workers, f.NumRows(), cols, func(r int, leaf *Node) {
		out[r] = leaf.Value
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// forEachRowChunk routes every row to its leaf, chunked across the pool;
// each chunk keeps its own feature buffer.
func (t *Tree) forEachRowChunk(ctx context.Context, workers, rows int, cols [][]float64, visit func(r int, leaf *Node)) error {
	chunks := parallel.Chunks(rows, parallel.Workers(workers))
	return parallel.ForEach(ctx, workers, len(chunks), func(ci int) error {
		x := make([]float64, len(cols))
		for r := chunks[ci][0]; r < chunks[ci][1]; r++ {
			for i, c := range cols {
				x[i] = c[r]
			}
			visit(r, t.leafFor(x))
		}
		return nil
	})
}

// AssignLeaves returns the LeafID for every row of f. The paper uses
// this to cluster racks into groups with similar failure behaviour.
func (t *Tree) AssignLeaves(f *frame.Frame) ([]int, error) {
	cols, err := t.featureCols(f)
	if err != nil {
		return nil, err
	}
	out := make([]int, f.NumRows())
	x := make([]float64, len(cols))
	for r := range out {
		for i, c := range cols {
			x[i] = c[r]
		}
		out[r] = t.leafFor(x).LeafID
	}
	return out, nil
}

func (t *Tree) featureCols(f *frame.Frame) ([][]float64, error) {
	cols := make([][]float64, len(t.Features))
	for i, feat := range t.Features {
		c, err := f.Col(feat.Name)
		if err != nil {
			return nil, err
		}
		// Missing cells route like any other missing value (majority
		// child), so surface them as the NaN sentinel leafFor checks.
		cols[i] = c.Values()
	}
	return cols, nil
}

// Importance returns per-feature relative importance scaled so the most
// important feature scores 100 (rpart's convention). Features never used
// in a split score 0.
func (t *Tree) Importance() map[string]float64 {
	out := make(map[string]float64, len(t.Features))
	maxRaw := 0.0
	for _, v := range t.importanceRaw {
		if v > maxRaw {
			maxRaw = v
		}
	}
	for i, feat := range t.Features {
		if maxRaw == 0 {
			out[feat.Name] = 0
			continue
		}
		// Divide before scaling so the top feature is exactly 100 (the
		// other order can overshoot by an ulp).
		out[feat.Name] = 100 * (t.importanceRaw[i] / maxRaw)
	}
	return out
}

// RankedFeatures returns feature names ordered by decreasing importance.
func (t *Tree) RankedFeatures() []string {
	type fi struct {
		name string
		imp  float64
	}
	list := make([]fi, len(t.Features))
	imp := t.Importance()
	for i, f := range t.Features {
		list[i] = fi{f.Name, imp[f.Name]}
	}
	slices.SortStableFunc(list, func(a, b fi) int {
		switch {
		case a.imp > b.imp:
			return -1
		case a.imp < b.imp:
			return 1
		}
		return 0
	})
	out := make([]string, len(list))
	for i, e := range list {
		out[i] = e.name
	}
	return out
}
