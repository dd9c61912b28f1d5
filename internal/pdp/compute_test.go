package pdp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"rainshine/internal/cart"
	"rainshine/internal/frame"
	"rainshine/internal/rng"
)

// bruteForce is the partial-dependence loop ComputeContext replaced,
// kept as its oracle: the grid read off a full sort of the finite
// cells, then every row routed down the tree once per grid point.
func bruteForce(tree *cart.Tree, f *frame.Frame, feature string, gridSize int) ([]Point, error) {
	if gridSize <= 0 {
		gridSize = 20
	}
	fi := -1
	for i, feat := range tree.Features {
		if feat.Name == feature {
			fi = i
		}
	}
	if fi < 0 {
		return nil, fmt.Errorf("no feature %q", feature)
	}
	col, err := f.Col(feature)
	if err != nil {
		return nil, err
	}
	var grid []Point
	if feat := tree.Features[fi]; feat.Kind != frame.Continuous {
		for li, lvl := range feat.Levels {
			grid = append(grid, Point{Value: float64(li), Label: lvl})
		}
	} else if grid = sortedGrid(col.Data, gridSize); len(grid) == 0 {
		return nil, fmt.Errorf("no finite %q", feature)
	}
	cols := make([][]float64, len(tree.Features))
	for i, tf := range tree.Features {
		c, err := f.Col(tf.Name)
		if err != nil {
			return nil, err
		}
		cols[i] = c.Values()
	}
	x := make([]float64, len(cols))
	for gi := range grid {
		sum := 0.0
		for r := 0; r < f.NumRows(); r++ {
			for i, c := range cols {
				x[i] = c[r]
			}
			x[fi] = grid[gi].Value
			p, err := tree.Predict(x)
			if err != nil {
				return nil, err
			}
			sum += p
		}
		grid[gi].Effect = sum / float64(f.NumRows())
	}
	return grid, nil
}

// sortedGrid is continuousGrid by full sort.
func sortedGrid(data []float64, gridSize int) []Point {
	var sorted []float64
	for _, v := range data {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			sorted = append(sorted, v)
		}
	}
	if len(sorted) == 0 {
		return nil
	}
	sort.Float64s(sorted)
	var pts []Point
	seen := map[float64]bool{}
	for i := 0; i < gridSize; i++ {
		p := 0.0
		if gridSize > 1 {
			p = float64(i) / float64(gridSize-1)
		}
		v := sorted[int(p*float64(len(sorted)-1))]
		if !seen[v] {
			seen[v] = true
			pts = append(pts, Point{Value: v})
		}
	}
	return pts
}

// samePoints fails t unless got and want agree bit for bit.
func samePoints(t *testing.T, what string, got, want []Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, oracle %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Label != w.Label ||
			math.Float64bits(g.Value) != math.Float64bits(w.Value) ||
			math.Float64bits(g.Effect) != math.Float64bits(w.Effect) {
			t.Fatalf("%s: point %d = %+v, oracle %+v", what, i, g, w)
		}
	}
}

// Shape of the oracle frames: column names and level counts.
const (
	colCont = "c" // continuous, heavy ties, NaN and ±Inf cells
	colOrd  = "o" // typed ordinal with in-band missing codes
	colNom  = "n" // float-backed nominal with negative and out-of-range codes
	colWide = "w" // typed nominal with 70 levels (two LeftSet words)
	nomLvls = 6   // levels of colNom the tree knows
	ordLvls = 5   // levels of colOrd
	wideLvl = 70  // levels of colWide
	ties    = 40  // integer parts colCont draws from
)

func levels(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

// oracleFrame draws n rows of the four oracle columns. Every cell class
// the router distinguishes appears: finite values, NaN, ±Inf, in-band
// missing codes, and nominal codes outside the tree's levels.
func oracleFrame(t testing.TB, src *rng.Source, n int) *frame.Frame {
	t.Helper()
	c := make([]float64, n)
	o := make([]uint8, n)
	nom := make([]float64, n)
	w := make([]int, n)
	for r := 0; r < n; r++ {
		c[r] = float64(src.IntN(ties)) + 0.5*float64(src.IntN(2))
		switch u := src.Float64(); {
		case u < 0.06:
			c[r] = math.NaN()
		case u < 0.08:
			c[r] = math.Inf(1 - 2*src.IntN(2))
		}
		o[r] = uint8(src.IntN(ordLvls))
		if src.Float64() < 0.05 {
			o[r] = 255
		}
		nom[r] = float64(src.IntN(nomLvls+2) - 1) // -1 and nomLvls are out of range
		if src.Float64() < 0.05 {
			nom[r] = math.NaN()
		}
		w[r] = src.IntN(wideLvl)
	}
	f := frame.New(n)
	if err := f.AddContinuous(colCont, c); err != nil {
		t.Fatal(err)
	}
	if err := f.AddOrdinalCodes(colOrd, o, levels("o", ordLvls)); err != nil {
		t.Fatal(err)
	}
	if err := f.AddColumn(frame.Column{Name: colNom, Kind: frame.Nominal, Data: nom, Levels: levels("n", nomLvls)}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddNominalInts(colWide, w, levels("w", wideLvl)); err != nil {
		t.Fatal(err)
	}
	return f
}

var oracleFeatures = []cart.Feature{
	{Name: colCont, Kind: frame.Continuous},
	{Name: colOrd, Kind: frame.Ordinal, Levels: levels("o", ordLvls)},
	{Name: colNom, Kind: frame.Nominal, Levels: levels("n", nomLvls)},
	{Name: colWide, Kind: frame.Nominal, Levels: levels("w", wideLvl)},
}

// randomTree grows a random tree over oracleFeatures: each node below
// maxDepth splits with probability pSplit, on feature hot with
// probability pHot (so the feature of interest recurs along paths) and
// otherwise on a uniformly drawn one. Leaf values are Gaussian, so the
// row sums round and any reordering would show in the low bits.
func randomTree(src *rng.Source, maxDepth int, pSplit float64, hot int, pHot float64) *cart.Tree {
	var grow func(depth int) *cart.Node
	grow = func(depth int) *cart.Node {
		if depth >= maxDepth || src.Float64() >= pSplit {
			return &cart.Node{Feature: -1, LeafID: -1, Value: src.NormFloat64()}
		}
		fi := src.IntN(len(oracleFeatures))
		if src.Float64() < pHot {
			fi = hot
		}
		n := &cart.Node{Feature: fi, LeafID: -1, DefaultLeft: src.IntN(2) == 0}
		switch feat := oracleFeatures[fi]; feat.Kind {
		case frame.Nominal:
			n.LeftSet = make([]uint64, (len(feat.Levels)+63)/64)
			for c := range feat.Levels {
				if src.IntN(2) == 0 {
					n.LeftSet[c/64] |= 1 << (uint(c) % 64)
				}
			}
		case frame.Ordinal:
			n.Threshold = float64(src.IntN(ordLvls)) - 0.5*float64(src.IntN(2))
		default:
			n.Threshold = float64(src.IntN(ties+2)) - 1 + 0.25*float64(src.IntN(4))
		}
		n.Left = grow(depth + 1)
		n.Right = grow(depth + 1)
		return n
	}
	return &cart.Tree{Root: grow(0), Features: oracleFeatures, Task: cart.Regression}
}

func countLeaves(n *cart.Node) int {
	if n.IsLeaf() {
		return 1
	}
	return countLeaves(n.Left) + countLeaves(n.Right)
}

// TestComputeMatchesBruteForce pins the exactness contract: on seeded
// random trees over every feature kind — the feature of interest split
// repeatedly along one path, NaN, ±Inf and out-of-range cells in the
// other features, trees past 64 leaves — the curve equals the
// brute-force loop bit for bit at every worker count.
func TestComputeMatchesBruteForce(t *testing.T) {
	src := rng.New(13)
	f := oracleFrame(t, src, 3000)
	wide := 0
	for trial := 0; trial < 24; trial++ {
		hot := trial % len(oracleFeatures)
		depth := 3 + trial%6
		tree := randomTree(src, depth, 0.85, hot, 0.4)
		if countLeaves(tree.Root) > 64 {
			wide++
		}
		for fi, feat := range oracleFeatures {
			for _, grid := range []int{1, 7, 20} {
				if feat.Kind != frame.Continuous && grid != 20 {
					continue
				}
				want, err := bruteForce(tree, f, feat.Name, grid)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 3} {
					got, err := ComputeContext(context.Background(), tree, f, feat.Name, grid, workers)
					if err != nil {
						t.Fatal(err)
					}
					samePoints(t, fmt.Sprintf("trial %d hot %d feature %d grid %d workers %d", trial, hot, fi, grid, workers),
						got, want)
				}
			}
		}
	}
	if wide == 0 {
		t.Fatal("no random tree had more than 64 leaves")
	}
}

// TestComputeMatchesBruteForceFitted runs the oracle on trees the CART
// engines grew, before and after pruning renumbers their leaves. The
// trees train on a copy whose out-of-range nominal codes are NaN, so
// the evaluation frame's unseen codes take DefaultLeft as fitted.
func TestComputeMatchesBruteForceFitted(t *testing.T) {
	f := oracleFrame(t, rng.New(21), 4000)
	train := frame.New(f.NumRows())
	y := make([]float64, f.NumRows())
	src := rng.New(22)
	c := f.MustCol(colCont).Data
	nom := append([]float64(nil), f.MustCol(colNom).Data...)
	for r := range y {
		y[r] = src.NormFloat64()
		if c[r] > 20 {
			y[r] += 1
		}
		if nom[r] < 0 || nom[r] >= nomLvls {
			nom[r] = math.NaN()
		}
	}
	for _, name := range []string{colCont, colOrd, colWide} {
		if err := train.AddColumn(*f.MustCol(name)); err != nil {
			t.Fatal(err)
		}
	}
	for _, err := range []error{
		train.AddColumn(frame.Column{Name: colNom, Kind: frame.Nominal, Data: nom, Levels: levels("n", nomLvls)}),
		train.AddContinuous("y", y),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	feats := []string{colCont, colOrd, colNom, colWide}
	for _, split := range []cart.SplitMethod{cart.SplitExact, cart.SplitBinned} {
		tree, err := cart.Fit(train, "y", feats, cart.Config{Task: cart.Regression, MaxDepth: 7, MinSplit: 20, MinLeaf: 5, CP: -1, Split: split})
		if err != nil {
			t.Fatal(err)
		}
		for _, prune := range []int{0, 9} {
			if prune > 0 {
				tree.PruneToLeaves(prune)
			}
			for _, name := range feats {
				want, err := bruteForce(tree, f, name, 20)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ComputeContext(context.Background(), tree, f, name, 20, 2)
				if err != nil {
					t.Fatal(err)
				}
				samePoints(t, fmt.Sprintf("split %v prune %d feature %s", split, prune, name), got, want)
			}
		}
	}
}

// TestComputeDeterministicWorkers asserts the curve is identical for
// every worker count.
func TestComputeDeterministicWorkers(t *testing.T) {
	src := rng.New(5)
	f := oracleFrame(t, src, 2000)
	tree := randomTree(src, 7, 0.9, 0, 0.3)
	for _, feat := range oracleFeatures {
		base, err := ComputeContext(context.Background(), tree, f, feat.Name, 20, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4} {
			got, err := ComputeContext(context.Background(), tree, f, feat.Name, 20, workers)
			if err != nil {
				t.Fatal(err)
			}
			samePoints(t, fmt.Sprintf("%s workers %d", feat.Name, workers), got, base)
		}
	}
}

func TestComputeCanceled(t *testing.T) {
	src := rng.New(6)
	f := oracleFrame(t, src, 500)
	tree := randomTree(src, 5, 0.9, 0, 0.3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2} {
		if _, err := ComputeContext(ctx, tree, f, colCont, 20, workers); !errors.Is(err, context.Canceled) {
			t.Errorf("workers %d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestContinuousGridSelectionMatchesSort checks the selection-picked
// grid against the full sort, bit for bit, on columns from all-distinct
// to a single repeated value.
func TestContinuousGridSelectionMatchesSort(t *testing.T) {
	src := rng.New(8)
	for _, n := range []int{1, 2, 3, 19, 20, 21, 1000, 4097} {
		for _, distinct := range []int{1, 2, 3, 10, 1 << 30} {
			data := make([]float64, n)
			for i := range data {
				data[i] = float64(src.IntN(distinct)) + 1
			}
			if distinct == 3 {
				// Sorted and reversed runs: the pivot's worst inputs.
				sort.Float64s(data)
				if n%2 == 1 {
					sort.Sort(sort.Reverse(sort.Float64Slice(data)))
				}
			}
			for _, grid := range []int{1, 2, 5, 20, 64} {
				in := append([]float64(nil), data...)
				got := continuousGrid(in, grid)
				samePoints(t, fmt.Sprintf("n %d distinct %d grid %d", n, distinct, grid), got, sortedGrid(data, grid))
				for i := range in {
					if in[i] != data[i] {
						t.Fatalf("continuousGrid modified its input at %d", i)
					}
				}
			}
		}
	}
}

// TestSelectRankPartitions checks selectRank's whole contract on tied
// columns: a[k] is the sorted value, nothing before it is greater and
// nothing after it is smaller.
func TestSelectRankPartitions(t *testing.T) {
	src := rng.New(9)
	for _, n := range []int{1, 2, 5, 64, 1000} {
		for _, distinct := range []int{1, 2, 7, 1 << 30} {
			for trial := 0; trial < 8; trial++ {
				a := make([]float64, n)
				for i := range a {
					a[i] = float64(src.IntN(distinct))
				}
				sorted := append([]float64(nil), a...)
				sort.Float64s(sorted)
				k := src.IntN(n)
				v := selectRank(a, k)
				if v != sorted[k] || a[k] != v {
					t.Fatalf("n %d distinct %d: rank %d = %v (a[k] %v), want %v", n, distinct, k, v, a[k], sorted[k])
				}
				for i, x := range a {
					if (i < k && x > v) || (i > k && x < v) {
						t.Fatalf("n %d distinct %d rank %d: a[%d] = %v on the wrong side of %v", n, distinct, k, i, x, v)
					}
				}
			}
		}
	}
}

// TestContinuousGridSkipsNonFinite: NaN and ±Inf cells are no probe
// points. A full sort puts NaN first, so before this fix a 10%-NaN
// column probed Value=NaN twice (seen[NaN] never matches).
func TestContinuousGridSkipsNonFinite(t *testing.T) {
	src := rng.New(3)
	data := make([]float64, 2000)
	for i := range data {
		data[i] = src.Float64() * 100
		switch {
		case i%10 == 0:
			data[i] = math.NaN()
		case i%97 == 0:
			data[i] = math.Inf(1)
		case i%89 == 0:
			data[i] = math.Inf(-1)
		}
	}
	pts := continuousGrid(data, 20)
	if len(pts) != 20 {
		t.Fatalf("grid has %d points, want 20", len(pts))
	}
	for i, p := range pts {
		if math.IsNaN(p.Value) || math.IsInf(p.Value, 0) {
			t.Fatalf("point %d probes %v", i, p.Value)
		}
		if i > 0 && p.Value <= pts[i-1].Value {
			t.Fatalf("grid not increasing at %d: %v then %v", i, pts[i-1].Value, p.Value)
		}
	}
}

func TestComputeAllNonFiniteFeature(t *testing.T) {
	f := frame.New(4)
	if err := f.AddContinuous("x", []float64{math.NaN(), math.Inf(1), math.NaN(), math.Inf(-1)}); err != nil {
		t.Fatal(err)
	}
	tree := &cart.Tree{
		Root:     &cart.Node{Feature: -1, LeafID: 0, Value: 1},
		Features: []cart.Feature{{Name: "x", Kind: frame.Continuous}},
	}
	_, err := Compute(tree, f, "x", 20)
	if err == nil || !strings.Contains(err.Error(), `"x"`) {
		t.Fatalf("err = %v, want an error naming feature \"x\"", err)
	}
}

// FuzzComputeMatchesBruteForce decodes the input into a small frame and
// tree over oracleFeatures and requires ComputeContext to equal the
// brute-force oracle for every feature of interest.
func FuzzComputeMatchesBruteForce(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x07\x03\x00\x11\x22\x33\x44\x55\x66\x77\x88\x99\xaa\xbb\xcc\xdd\xee\xff"))
	f.Add([]byte("\x20\x05\x01\x02\x03\x04\xf0\xf1\xf2\xf3\xfe\xff\x10\x80\x40\x20\x10\x08\x04\x02\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		b := byteReader{data: data}
		rows := 1 + int(b.next())%48
		grid := int(b.next()) % 24
		fr := fuzzFrame(t, &b, rows)
		tree := &cart.Tree{Root: fuzzNode(&b, 0), Features: oracleFeatures, Task: cart.Regression}
		for _, feat := range oracleFeatures {
			want, werr := bruteForce(tree, fr, feat.Name, grid)
			got, gerr := ComputeContext(context.Background(), tree, fr, feat.Name, grid, 2)
			if (werr != nil) != (gerr != nil) {
				t.Fatalf("%s: err %v, oracle err %v", feat.Name, gerr, werr)
			}
			if werr == nil {
				samePoints(t, feat.Name, got, want)
			}
		}
	})
}

// byteReader hands out the fuzz input one byte at a time, then zeros.
type byteReader struct {
	data []byte
	pos  int
}

func (b *byteReader) next() byte {
	if b.pos >= len(b.data) {
		return 0
	}
	b.pos++
	return b.data[b.pos-1]
}

// fuzzFrame decodes rows of the oracle columns. The top byte values of
// each cell are the special cases: NaN, ±Inf, missing codes and
// out-of-range nominal codes.
func fuzzFrame(t *testing.T, b *byteReader, rows int) *frame.Frame {
	c := make([]float64, rows)
	o := make([]uint8, rows)
	nom := make([]float64, rows)
	w := make([]uint8, rows)
	for r := 0; r < rows; r++ {
		switch v := b.next(); v {
		case 255:
			c[r] = math.NaN()
		case 254:
			c[r] = math.Inf(1)
		case 253:
			c[r] = math.Inf(-1)
		default:
			c[r] = float64(v%16) * 0.5
		}
		o[r] = b.next() % (ordLvls + 1) // ordLvls is the missing sentinel
		switch v := b.next(); v {
		case 255:
			nom[r] = math.NaN()
		default:
			nom[r] = float64(int(v%(nomLvls+2)) - 1)
		}
		w[r] = b.next() % wideLvl
	}
	fr := frame.New(rows)
	for _, err := range []error{
		fr.AddContinuous(colCont, c),
		fr.AddOrdinalCodes(colOrd, o, levels("o", ordLvls)),
		fr.AddColumn(frame.Column{Name: colNom, Kind: frame.Nominal, Data: nom, Levels: levels("n", nomLvls)}),
		fr.AddNominalCodes(colWide, w, levels("w", wideLvl)),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return fr
}

// fuzzNode decodes a tree of depth at most 6: a byte below 160 opens an
// internal node whose feature, routing and children follow.
func fuzzNode(b *byteReader, depth int) *cart.Node {
	op := b.next()
	if depth >= 6 || op >= 160 {
		return &cart.Node{Feature: -1, LeafID: -1, Value: float64(int(op)-128) / 7}
	}
	fi := int(op) % len(oracleFeatures)
	n := &cart.Node{Feature: fi, LeafID: -1, DefaultLeft: op&0x80 != 0}
	switch feat := oracleFeatures[fi]; feat.Kind {
	case frame.Nominal:
		n.LeftSet = make([]uint64, (len(feat.Levels)+63)/64)
		for i := range n.LeftSet {
			for k := 0; k < 8; k++ {
				n.LeftSet[i] |= uint64(b.next()) << (8 * k)
			}
		}
	default:
		n.Threshold = float64(b.next()%20)*0.25 - 0.5
	}
	n.Left = fuzzNode(b, depth+1)
	n.Right = fuzzNode(b, depth+1)
	return n
}
