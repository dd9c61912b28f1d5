package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"rainshine"
	"rainshine/internal/cart"
	"rainshine/internal/envan"
	"rainshine/internal/figures"
	"rainshine/internal/frame"
	"rainshine/internal/metrics"
	"rainshine/internal/pdp"
	"rainshine/internal/ticket"
)

// batch is the paper_batch workload: repeated cold passes that build
// the paper-scale study and make the public calls `rainshine all`
// makes, at the default worker count; after the window, one pass with
// WithWorkers(1). Every pass's reports, marshaled to JSON, must be
// byte-identical.
type batch struct {
	seed    uint64
	chk     *checker
	study   *rainshine.Study // the last pass's study, live until close
	passMS  []float64
	serialS float64
}

func newBatch(seed uint64) *batch { return &batch{seed: seed} }

func (b *batch) prepare(context.Context, *tracer) error {
	b.chk = newChecker(nil)
	return nil
}

func (b *batch) setupReps() int  { return 5 }
func (b *batch) tailGated() bool { return false }
func (b *batch) close()          { b.study = nil }

func (b *batch) options(workers int) []rainshine.Option {
	opts := []rainshine.Option{rainshine.WithSeed(b.seed)}
	if workers != 0 {
		opts = append(opts, rainshine.WithWorkers(workers))
	}
	return opts
}

// setupOnce times a cold study build to its first answer, Table I.
func (b *batch) setupOnce(ctx context.Context, tr *tracer, t *tally) (time.Duration, error) {
	root := tr.start(-1, "bench.setup")
	defer tr.end(root)
	start := time.Now()
	sp := tr.start(root, "simulate.run")
	st, err := rainshine.NewStudyContext(ctx, b.options(0)...)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = tr.start(root, "figures.table1")
	t1 := st.Figures().TableI()
	tr.end(sp)
	d := time.Since(start)
	body, err := json.Marshal(t1)
	if err != nil {
		return 0, fmt.Errorf("encoding Table I: %w", err)
	}
	t.add(b.chk.check("table1", body))
	return d, nil
}

// call is one public call a pass makes, named for its span.
type call struct {
	name string
	fn   func() (any, error)
}

// figureCalls are the paper's figures in `rainshine all` order.
var figureCalls = []func(*figures.Data) (any, error){
	func(d *figures.Data) (any, error) { return d.Fig1() },
	func(d *figures.Data) (any, error) { return d.Fig2() },
	func(d *figures.Data) (any, error) { return d.Fig3() },
	func(d *figures.Data) (any, error) { return d.Fig4() },
	func(d *figures.Data) (any, error) { return d.Fig5() },
	func(d *figures.Data) (any, error) { return d.Fig6() },
	func(d *figures.Data) (any, error) { return d.Fig7() },
	func(d *figures.Data) (any, error) { return d.Fig8() },
	func(d *figures.Data) (any, error) { return d.Fig9() },
	func(d *figures.Data) (any, error) { return d.Fig10() },
	func(d *figures.Data) (any, error) { return d.Fig11() },
	func(d *figures.Data) (any, error) { return d.Fig12() },
	func(d *figures.Data) (any, error) { return d.Fig13() },
	func(d *figures.Data) (any, error) { return d.Fig14() },
	func(d *figures.Data) (any, error) { return d.Fig15() },
	func(d *figures.Data) (any, error) { return d.Fig16() },
	func(d *figures.Data) (any, error) { return d.Fig17() },
	func(d *figures.Data) (any, error) { return d.Fig18() },
}

// summary is what `rainshine all` prints before Table I.
type summary struct {
	Racks, Servers, Days int
	Repeats              ticket.RepeatStatsResult
	MTTR                 any
	Alarms               any
}

// pass runs one cold pass and returns its reports as JSON. Each call
// into a layer is a span under the pass's root span.
func (b *batch) pass(ctx context.Context, tr *tracer, rootName string, workers int) (*rainshine.Study, []byte, error) {
	root := tr.start(-1, rootName)
	defer tr.end(root)
	var reports []any
	step := func(name string, fn func() (any, error)) error {
		sp := tr.start(root, name)
		v, err := fn()
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		reports = append(reports, v)
		return nil
	}
	var st *rainshine.Study
	if err := step("simulate.run", func() (any, error) {
		var err error
		st, err = rainshine.NewStudyContext(ctx, b.options(workers)...)
		return nil, err
	}); err != nil {
		return nil, nil, err
	}
	d := st.Figures()
	steps := []call{
		{"figures.table1", func() (any, error) { return d.TableI(), nil }},
		{"metrics.rackday_frame", func() (any, error) {
			f, err := d.RackDays()
			if err != nil {
				return nil, err
			}
			return f.NumRows(), nil
		}},
		{"rainshine.summary", func() (any, error) {
			alarms, err := st.EnvironmentAlarms()
			return summary{st.NumRacks(), st.NumServers(), st.Days(),
				ticket.RepeatStats(st.Tickets()), metrics.MTTR(d.Res), alarms}, err
		}},
		{"figures.table2", func() (any, error) { return d.TableII(), nil }},
		{"figures.table3", func() (any, error) { return d.TableIII(), nil }},
		{"figures.table4", func() (any, error) { return d.TableIV() }},
	}
	for i, fn := range figureCalls {
		steps = append(steps, call{fmt.Sprintf("figures.fig%d", i+1), func() (any, error) { return fn(d) }})
	}
	for _, wl := range []rainshine.Workload{rainshine.W1, rainshine.W6} {
		steps = append(steps, call{"provision.q1", func() (any, error) { return st.SpareProvisioning(wl, false) }})
	}
	steps = append(steps,
		call{"skucmp.q2", func() (any, error) { return st.VendorComparison() }},
		call{"envan.q3", func() (any, error) { return st.ClimateGuidanceContext(ctx) }})
	for _, s := range steps {
		if err := step(s.name, s.fn); err != nil {
			return nil, nil, err
		}
	}
	sp := tr.start(root, "rainshine.json")
	body, err := json.Marshal(reports)
	tr.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("encoding reports: %w", err)
	}
	return st, body, nil
}

// window runs default-worker passes until d has passed (at least two).
func (b *batch) window(ctx context.Context, d time.Duration, tr *tracer, t *tally) (window, error) {
	var w window
	start := time.Now()
	for len(w.latMS) < 2 || time.Since(start) < d {
		p0 := time.Now()
		st, body, err := b.pass(ctx, tr, "bench.pass", 0)
		w.latMS = append(w.latMS, ms(time.Since(p0)))
		if err == nil {
			err = b.chk.check("pass", body)
		}
		t.add(err)
		if err == nil {
			w.ok++
			b.study = st
		}
	}
	w.wall = time.Since(start)
	b.passMS = append(b.passMS, w.latMS...)
	w.heapMB = liveHeapMB()
	runtime.KeepAlive(b.study)
	return w, nil
}

// finish runs the serial pass, whose reports must match the default
// passes byte for byte, and in a traced run the standalone CART and PDP
// probes on the paper-scale frame.
func (b *batch) finish(ctx context.Context, tr *tracer, t *tally, layers map[string]float64) error {
	start := time.Now()
	_, body, err := b.pass(ctx, tr, "bench.serial_pass", 1)
	b.serialS = time.Since(start).Seconds()
	if err == nil {
		err = b.chk.check("pass", body)
	}
	t.add(err)
	if layers == nil {
		return nil
	}
	spans := tr.snapshot()
	for name, vals := range perRoot(spans, "bench.pass") {
		layers[name+"_ms"] = median(vals)
	}
	layers["parallel.serial_s"] = b.serialS
	if p := median(durations(spans, "bench.pass")); p > 0 {
		layers["parallel.speedup"] = b.serialS * 1000 / p
	}
	layers["trace.coverage"] = median(coverage(spans, "bench.pass"))
	if b.study == nil {
		return fmt.Errorf("no correct pass to probe")
	}
	f, err := b.study.Figures().RackDays()
	if err != nil {
		return err
	}
	layers["metrics.rackday_rows"] = float64(f.NumRows())
	return probeFit(ctx, tr, f, layers)
}

// probeFit fits the Q3 multi-factor tree on the paper-scale frame with
// each split engine, then computes envan's partial-dependence grid on
// the binned tree. Each call is a root span; the medians of three
// repetitions become the cart.* and pdp.* layer metrics.
func probeFit(ctx context.Context, tr *tracer, fr *frame.Frame, layers map[string]float64) error {
	// The growth rules envan.AnalyzeContext applies to its MF tree.
	cfg := cart.Config{Task: cart.Regression, MaxDepth: 8, MinSplit: 2000, MinLeaf: 700, CP: 0.00005}
	var tree *cart.Tree
	for _, probe := range []struct {
		name  string
		split cart.SplitMethod
	}{{"cart.fit_binned", cart.SplitBinned}, {"cart.fit_exact", cart.SplitExact}} {
		c := cfg
		c.Split = probe.split
		var vals []float64
		for i := 0; i < 3; i++ {
			sp := tr.start(-1, probe.name)
			t0 := time.Now()
			tr2, err := cart.FitContext(ctx, fr, "disk_failures", envan.MFFeatures, c)
			vals = append(vals, ms(time.Since(t0)))
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("%s: %w", probe.name, err)
			}
			if probe.split == cart.SplitBinned {
				tree = tr2
			}
		}
		layers[probe.name+"_ms"] = median(vals)
	}
	layers["cart.tree_leaves"] = float64(tree.NumLeaves())
	var vals []float64
	for i := 0; i < 3; i++ {
		sp := tr.start(-1, "pdp.compute")
		t0 := time.Now()
		_, err := pdp.ComputeContext(ctx, tree, fr, "temp", 20, 0)
		vals = append(vals, ms(time.Since(t0)))
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("pdp.compute: %w", err)
		}
	}
	layers["pdp.compute_ms"] = median(vals)
	return nil
}

func (b *batch) extras() [][3]string {
	return [][3]string{
		{"batch_s", fmt.Sprintf("%.4f", median(b.passMS)/1000), "s  (latency_p50_ms of a default-worker pass)"},
		{"batch_serial_s", fmt.Sprintf("%.4f", b.serialS), "s  (one WithWorkers(1) pass)"},
	}
}
