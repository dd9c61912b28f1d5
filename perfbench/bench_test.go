package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rainshine/internal/server"
)

func flip(b []byte) []byte {
	c := append([]byte(nil), b...)
	c[len(c)/2] ^= 0x01
	return c
}

// Each correctness check must reject an answer with one flipped byte.
func TestCheckerRejectsFlippedByte(t *testing.T) {
	body := []byte(`{"workload":"W6","overprov_pct":{"MF":[1.5,2.5]}}` + "\n")

	t.Run("first answer", func(t *testing.T) {
		c := newChecker(nil)
		if err := c.check("pass", body); err != nil {
			t.Fatalf("first answer rejected: %v", err)
		}
		if err := c.check("pass", body); err != nil {
			t.Fatalf("identical answer rejected: %v", err)
		}
		if err := c.check("pass", flip(body)); err == nil {
			t.Fatal("flipped answer accepted")
		}
	})
	t.Run("expected answer", func(t *testing.T) {
		c := newChecker(map[string][]byte{"envelope": body})
		if err := c.check("envelope", flip(body)); err == nil {
			t.Fatal("flipped first answer accepted against the expected one")
		}
		if err := c.check("envelope", body); err != nil {
			t.Fatalf("expected answer rejected: %v", err)
		}
	})
	t.Run("http answer", func(t *testing.T) {
		c := newChecker(map[string][]byte{"q": body})
		if err := judge(http.StatusOK, "", "q", body, c); err != nil {
			t.Fatalf("correct 200 rejected: %v", err)
		}
		if err := judge(http.StatusOK, "", "q", flip(body), c); err == nil {
			t.Fatal("flipped body accepted")
		}
	})
}

// A refused, failed or degraded request counts as a failed operation.
func TestRefusedRequestCountsAsFailed(t *testing.T) {
	body := []byte(`{"ok":true}`)
	var tl tally
	for _, status := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusInternalServerError} {
		tl.add(judge(status, "", "q", body, newChecker(nil)))
	}
	tl.add(judge(http.StatusOK, "stale", "q", body, newChecker(nil)))
	tl.add(judge(http.StatusOK, "", "q", body, newChecker(nil)))
	attempted, failed := tl.counts()
	if attempted != 5 || failed != 4 {
		t.Fatalf("attempted %d, failed %d; want 5, 4", attempted, failed)
	}
}

func TestStatsOnKnownInputs(t *testing.T) {
	xs := []float64{7, 1, 3, 9, 5}
	if got := median(xs); got != 5 {
		t.Errorf("median(odd) = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(even) = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median(nil) is not NaN")
	}
	if xs[0] != 7 {
		t.Error("median sorted its input in place")
	}
	// Python: statistics.quantiles([1, 2, ..., 10], n=4) == [2.75, 5.5, 8.25]
	var ten []float64
	for i := 1; i <= 10; i++ {
		ten = append(ten, float64(i))
	}
	if q1, q2, q3 := quartiles(ten); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// Python: statistics.quantiles([1, 3, 5, 7, 9], n=4) == [2.0, 5.0, 8.0]
	if q1, q2, q3 := quartiles(xs); q1 != 2 || q2 != 5 || q3 != 8 {
		t.Errorf("quartiles(%v) = %v %v %v, want 2 5 8", xs, q1, q2, q3)
	}
	// Python: statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	if got := percentile(hundred, 95); got != 95 {
		t.Errorf("p95(1..100) = %v, want 95", got)
	}
	if got := percentile(hundred, 50); got != 50 {
		t.Errorf("p50(1..100) = %v, want 50", got)
	}
	if got := percentile([]float64{3, 1, 2}, 95); got != 3 {
		t.Errorf("p95 of 3 samples = %v, want the maximum", got)
	}
	w := window{latMS: []float64{1, 2, 3, 10, 20, 30, 4, 5, 6}}
	if got := w.latency(median); got != 5 {
		t.Errorf("whole-window median = %v, want 5", got)
	}
	w.slices = [][]float64{{1, 2, 3}, {10, 20, 30}, {4, 5, 6}, nil}
	if got := w.latency(median); got != 5 {
		t.Errorf("median of slice medians = %v, want 5 (of 2, 20, 5)", got)
	}
	if got := w.latency(func(xs []float64) float64 { return percentile(xs, 95) }); got != 6 {
		t.Errorf("median of slice p95s = %v, want 6 (of 3, 30, 6)", got)
	}
}

// At least 200 samples put at least 10 beyond the p95; 199 do not.
func TestTenBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n, want int
	}{{200, 10}, {199, 9}, {220, 11}, {1000, 50}, {20, 1}, {1, 0}, {0, 0}} {
		if got := beyond(c.n, 95); got != c.want {
			t.Errorf("beyond(%d, 95) = %d, want %d", c.n, got, c.want)
		}
	}
	if beyond(199, 95) >= minBeyond || beyond(200, 95) < minBeyond {
		t.Error("the p95 gate does not switch at 200 samples")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	at := func(msec int) time.Duration { return time.Duration(msec) * time.Millisecond }
	spans := []span{
		{ID: 0, Parent: -1, Name: "bench.pass", Start: at(0), End: at(100)},
		{ID: 1, Parent: 0, Name: "simulate.run", Start: at(0), End: at(30)},
		{ID: 2, Parent: 0, Name: "figures.fig1", Start: at(20), End: at(60)}, // overlaps span 1
		{ID: 3, Parent: 2, Name: "envan.q3", Start: at(40), End: at(50)},
		{ID: 4, Parent: 0, Name: "provision.q1", Start: at(70), End: at(80)},
		{ID: 5, Parent: 0, Name: "provision.q1", Start: at(80), End: at(85)},
	}
	self := selfTimes(spans)
	want := map[string]float64{"bench": 25, "simulate": 30, "figures": 30, "envan": 10, "provision": 15}
	for mod, w := range want {
		if got := self[mod]; math.Abs(got-w) > 1e-9 {
			t.Errorf("self[%s] = %v, want %v", mod, got, w)
		}
	}
	if got := coverage(spans, "bench.pass"); len(got) != 1 || math.Abs(got[0]-0.75) > 1e-9 {
		t.Errorf("coverage = %v, want [0.75]", got)
	}
	per := perRoot(spans, "bench.pass")
	if got := per["provision.q1"]; len(got) != 1 || got[0] != 15 {
		t.Errorf("perRoot provision.q1 = %v, want [15]", got)
	}
}

func TestNilTracerIsNoop(t *testing.T) {
	var tr *tracer
	id := tr.start(-1, "bench.pass")
	tr.end(id)
	tr.record(id, "stream.dayclose", time.Now(), time.Now())
	if id != -1 || tr.snapshot() != nil {
		t.Fatal("nil tracer recorded a span")
	}
}

// The metric names the benchmark prints are the names BENCHMARK.json
// declares.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	match := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the code prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	match("end_to_end", spec.EndToEnd, endToEndMetrics)
	match("per_layer", spec.PerLayer, layerMetrics)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code runs %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json has %s, the code has %s", i, w.Name, workloadNames[i])
		}
	}
}

// The same seed draws the same request sequence; another seed draws
// another one with the same mix.
func TestServeSequenceFromSeed(t *testing.T) {
	mk := func(seed uint64) *serve {
		s := newServe(seed, false)
		s.queries = queriesFor(server.StudyConfig{Seed: seed}.Normalize(), true)
		return s
	}
	a, b, c := mk(7), mk(7), mk(8)
	for _, s := range []*serve{a, b, c} {
		s.drawSequence()
	}
	if !equalInts(a.seq, b.seq) {
		t.Fatal("same seed drew different sequences")
	}
	if equalInts(a.seq, c.seq) {
		t.Fatal("different seeds drew the same sequence")
	}
	count := map[string]int{}
	for _, i := range a.seq[:1000] {
		count[a.queries[i].endpoint]++
	}
	want := map[string]int{"q1": 400, "q2": 200, "quality": 200, "predict": 100, "q3": 100}
	for ep, n := range want {
		if count[ep] != n {
			t.Errorf("%s: %d of the first 1000 requests, want %d", ep, count[ep], n)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// An end-to-end run on a tiny window: every answer is checked, and the
// result line carries every end-to-end metric.
func TestRunChurnEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a dozen studies")
	}
	var out bytes.Buffer
	ok, err := runAll(context.Background(), options{workload: "serve_churn", seed: 3, seconds: 1}, &out)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("attempted %d, failed %d:\n%s", res.Attempted, res.Failed, out.String())
	}
	if ok {
		t.Error("a 1 s serve window passed the 200-request p95 gate")
	}
	for _, m := range endToEndMetrics {
		if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit || !(v.Value > 0) {
			t.Errorf("%s: %+v", m.name, v)
		}
	}
}
