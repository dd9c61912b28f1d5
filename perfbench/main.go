// Command perfbench is the repository benchmark: it runs one workload
// against the rainshine pipeline for a fixed window, checks that every
// answer is correct, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics from a traced run) as one JSON
// object on the last line of standard output.
//
//	perfbench --workload paper_batch --seed 42 --seconds 25 --trace 0
//
// See README.md for the workloads, the metrics and how to run it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload interface {
	// prepare builds the workload's inputs from the seed and computes
	// the expected answers. It is not timed.
	prepare(ctx context.Context, tr *tracer) error
	// setupReps is how many set-ups a run measures.
	setupReps() int
	// setupOnce measures one set-up: the time until the first correct
	// answer. The last set-up's state is what the window runs against.
	setupOnce(ctx context.Context, tr *tracer, t *tally) (time.Duration, error)
	// window runs operations for d and reports each one's latency.
	window(ctx context.Context, d time.Duration, tr *tracer, t *tally) (window, error)
	// finish runs the work that follows the window (extra correctness
	// passes; in traced runs, standalone layer probes) and fills the
	// workload's per-layer metrics from the spans. layers is nil in an
	// untraced run.
	finish(ctx context.Context, tr *tracer, t *tally, layers map[string]float64) error
	// tailGated reports whether the run fails when fewer than
	// minBeyond operations lie past the p95 latency.
	tailGated() bool
	// extras returns workload-specific figures for the human-readable
	// report (name, value, unit).
	extras() [][3]string
	// close releases what the workload holds and stops what it started.
	close()
}

// window is the outcome of one measured window.
type window struct {
	latMS []float64 // per operation, send to last byte
	// slices, when set, holds latMS split by the part of the window
	// each operation started in. The latency metrics are then the
	// median over slices of each slice's median and p95.
	slices [][]float64
	ok     int           // correct operations
	wall   time.Duration // first send to last completion
	heapMB float64       // live heap after a forced GC at the end
}

// runtimeCounts reads cumulative allocation and GC counters.
type runtimeCounts struct {
	allocBytes uint64
	gcCycles   uint64
}

func readRuntime() runtimeCounts {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var c runtimeCounts
	if s[0].Value.Kind() == metrics.KindUint64 {
		c.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		c.gcCycles = s[1].Value.Uint64()
	}
	return c
}

func (c runtimeCounts) sub(o runtimeCounts) runtimeCounts {
	return runtimeCounts{c.allocBytes - o.allocBytes, c.gcCycles - o.gcCycles}
}

// liveHeapMB forces a collection and returns the live heap in MiB. The
// caller keeps the workload's long-lived objects referenced across it.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// traceDir is where a traced run writes its spans, relative to the
// checkout the benchmark runs in.
var traceDir = filepath.Join(".bench_build", "traces")

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloadNames = []string{"paper_batch", "serve_hot", "serve_churn", "stream_replay"}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "paper_batch":
		return newBatch(seed), nil
	case "serve_hot":
		return newServe(seed, false), nil
	case "serve_churn":
		return newServe(seed, true), nil
	case "stream_replay":
		return newReplay(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s, or all)", name, strings.Join(workloadNames, ", "))
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	ok, err := runAll(context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	fs.Uint64Var(&o.seed, "seed", 42, "workload seed (42 reproduces the paper run)")
	fs.IntVar(&o.seconds, "seconds", 25, "length of the measured window, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.workload == "" {
		return o, errors.New("--workload is required")
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds %d: want at least 1", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	o.trace = trace == 1
	return o, nil
}

// runAll runs one workload, or every workload in turn for "all", and
// prints the result line last.
func runAll(ctx context.Context, o options, out io.Writer) (bool, error) {
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		oo := o
		oo.workload = name
		res, err := runOne(ctx, oo, out)
		if err != nil {
			return false, fmt.Errorf("%s: %w", name, err)
		}
		if len(names) == 1 {
			total = res
			break
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[name+"."+k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		return false, fmt.Errorf("encoding result: %w", err)
	}
	fmt.Fprintf(out, "%s\n", line)
	return total.Correct, nil
}

// runOne measures one workload and prints its human-readable report.
func runOne(ctx context.Context, o options, out io.Writer) (result, error) {
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return result{}, err
	}
	defer w.close()
	st := newStamp(o)
	fmt.Fprintf(out, "== %s  seed=%d window=%ds trace=%t  GOMAXPROCS=%d NumCPU=%d %s commit=%s\n",
		o.workload, o.seed, o.seconds, o.trace, st.GOMAXPROCS, st.NumCPU, st.GoVersion, st.Commit)
	stampLine, err := json.Marshal(st)
	if err != nil {
		return result{}, fmt.Errorf("encoding stamp: %w", err)
	}
	fmt.Fprintf(out, "stamp %s\n", stampLine)

	var tr *tracer
	if o.trace {
		tr = newTracer(fmt.Sprintf("%s-%d-%d", o.workload, o.seed, time.Now().UnixNano()))
	}
	var t tally
	if err := w.prepare(ctx, tr); err != nil {
		return result{}, fmt.Errorf("preparing inputs: %w", err)
	}

	// Set-up is measured several times; in a traced run every other
	// set-up is traced, so the two medians give the tracing overhead.
	var setups, tracedSetups []float64
	for i := 0; i < w.setupReps(); i++ {
		var str *tracer
		if o.trace && i%2 == 1 {
			str = tr
		}
		d, err := w.setupOnce(ctx, str, &t)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		if str != nil {
			tracedSetups = append(tracedSetups, d.Seconds())
		} else {
			setups = append(setups, d.Seconds())
		}
	}

	d := time.Duration(o.seconds) * time.Second
	res := result{Metrics: map[string]metric{}}
	var problems []string
	if !o.trace {
		win, err := w.window(ctx, d, nil, &t)
		if err != nil {
			return result{}, fmt.Errorf("window: %w", err)
		}
		if err := w.finish(ctx, nil, &t, nil); err != nil {
			return result{}, err
		}
		e2e := endToEnd(setups, win)
		if w.tailGated() && beyond(len(win.latMS), 95) < minBeyond {
			problems = append(problems, fmt.Sprintf("only %d operations: fewer than %d lie beyond p95", len(win.latMS), minBeyond))
		}
		for _, m := range endToEndMetrics {
			res.Metrics[m.name] = metric{e2e[m.name], m.unit}
		}
		printEndToEnd(out, e2e, setups, win, w)
	} else {
		// The traced run halves the window: the first half runs with
		// tracing off, the second with it on. Per-layer metrics come
		// from the traced half; the difference is the overhead.
		plain, err := w.window(ctx, d/2, nil, &t)
		if err != nil {
			return result{}, fmt.Errorf("untraced window: %w", err)
		}
		before := readRuntime()
		traced, err := w.window(ctx, d/2, tr, &t)
		if err != nil {
			return result{}, fmt.Errorf("traced window: %w", err)
		}
		delta := readRuntime().sub(before)
		layers := map[string]float64{}
		if err := w.finish(ctx, tr, &t, layers); err != nil {
			return result{}, err
		}
		spans := tr.snapshot()
		for mod, v := range selfTimes(spans) {
			layers[mod+".self_ms"] = v
		}
		if n := len(traced.latMS); n > 0 {
			layers["runtime.alloc_mb"] = float64(delta.allocBytes) / (1 << 20) / float64(n)
			layers["runtime.gc_cycles"] = float64(delta.gcCycles) / float64(n)
		}
		layers["trace.spans"] = float64(len(spans))
		e0, e1 := endToEnd(setups, plain), endToEnd(tracedSetups, traced)
		for _, m := range endToEndMetrics {
			layers["trace.overhead."+m.name] = e1[m.name] - e0[m.name]
		}
		for _, m := range layerMetrics {
			v := layers[m.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
		path := filepath.Join(traceDir, tr.run+".jsonl")
		if err := writeTrace(path, st, spans); err != nil {
			return result{}, err
		}
		printLayers(out, res.Metrics, path)
	}
	res.Attempted, res.Failed = t.counts()
	res.Correct = res.Failed == 0 && len(problems) == 0
	fmt.Fprintf(out, "failed_share %.4f ratio (%d of %d operations failed)\n",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	for _, r := range append(t.reasons, problems...) {
		fmt.Fprintf(out, "  failure: %s\n", r)
	}
	if res.Attempted == 0 {
		return result{}, errors.New("no operation was attempted")
	}
	return res, nil
}

// latency applies stat to the window's latencies, or to each slice and
// takes the median.
func (w window) latency(stat func([]float64) float64) float64 {
	if len(w.slices) == 0 {
		return stat(w.latMS)
	}
	var per []float64
	for _, s := range w.slices {
		if len(s) > 0 {
			per = append(per, stat(s))
		}
	}
	return median(per)
}

// endToEnd derives the end-to-end metrics from the set-up samples and a
// window.
func endToEnd(setups []float64, w window) map[string]float64 {
	out := map[string]float64{
		"setup_s":        median(setups),
		"latency_p50_ms": w.latency(median),
		"latency_p95_ms": w.latency(func(xs []float64) float64 { return percentile(xs, 95) }),
		"heap_mb":        w.heapMB,
	}
	if w.wall > 0 {
		out["throughput_rps"] = float64(w.ok) / w.wall.Seconds()
	}
	return out
}

func printEndToEnd(out io.Writer, e2e map[string]float64, setups []float64, w window, wl workload) {
	n := len(w.latMS)
	for _, m := range endToEndMetrics {
		note := ""
		switch m.name {
		case "setup_s":
			note = fmt.Sprintf("median of %d set-ups", len(setups))
		case "latency_p50_ms":
			q1, _, q3 := quartiles(w.latMS)
			note = fmt.Sprintf("n=%d, quartiles %.4f-%.4f", n, q1, q3)
		case "latency_p95_ms":
			note = fmt.Sprintf("n=%d, %d beyond p95", n, beyond(n, 95))
		case "throughput_rps":
			note = fmt.Sprintf("%d correct in %.2fs", w.ok, w.wall.Seconds())
		}
		fmt.Fprintf(out, "%-16s %12.4f %-6s %s\n", m.name, e2e[m.name], m.unit, note)
	}
	for _, x := range wl.extras() {
		fmt.Fprintf(out, "%-16s %12s %s\n", x[0], x[1], x[2])
	}
}

func printLayers(out io.Writer, ms map[string]metric, path string) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "%-36s %14.4f %s\n", k, ms[k].Value, ms[k].Unit)
	}
	fmt.Fprintf(out, "spans written to %s\n", path)
}
