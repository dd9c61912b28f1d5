package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// functions. Times are offsets from the tracer's epoch.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root span
	Run    string        `json:"run"`
	Name   string        `json:"name"` // <module>.<mark>
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) ms() float64 { return ms(s.End - s.Start) }

// module is the layer a span belongs to: the part of its name before
// the first dot.
func (s span) module() string {
	m, _, _ := strings.Cut(s.Name, ".")
	return m
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op, so measured code takes
// the same path with tracing off.
type tracer struct {
	run   string
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, epoch: time.Now()}
}

// start opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) start(parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds an already-timed span.
func (t *tracer) record(parent int, name string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return id
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// children indexes spans by parent id.
func children(spans []span) map[int][]span {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

// covered is the length of the union of the child intervals, clipped to
// the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfTimes sums, per module, each span's duration minus the part of
// it that its child spans cover, in milliseconds.
func selfTimes(spans []span) map[string]float64 {
	kids := children(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.module()] += ms(s.End - s.Start - covered(s, kids[s.ID]))
	}
	return out
}

// perRoot sums span durations by name within each root span called
// rootName, and returns, per name, one total (ms) per root. A call made
// twice in one pass counts once, with both durations added.
func perRoot(spans []span, rootName string) map[string][]float64 {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	rootOf := func(s span) span {
		for s.Parent >= 0 {
			s = byID[s.Parent]
		}
		return s
	}
	sums := make(map[int]map[string]float64)
	for _, s := range spans {
		r := rootOf(s)
		if r.Name != rootName || r.ID == s.ID {
			continue
		}
		if sums[r.ID] == nil {
			sums[r.ID] = make(map[string]float64)
		}
		sums[r.ID][s.Name] += s.ms()
	}
	roots := make([]int, 0, len(sums))
	for id := range sums {
		roots = append(roots, id)
	}
	sort.Ints(roots)
	out := make(map[string][]float64)
	for _, id := range roots {
		for name, v := range sums[id] {
			out[name] = append(out[name], v)
		}
	}
	return out
}

// durations lists the durations (ms) of every span called name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// coverage is, per root span called rootName, the share of its
// duration that its direct children cover.
func coverage(spans []span, rootName string) []float64 {
	kids := children(spans)
	var out []float64
	for _, s := range spans {
		if s.Parent < 0 && s.Name == rootName && s.End > s.Start {
			out = append(out, float64(covered(s, kids[s.ID]))/float64(s.End-s.Start))
		}
	}
	return out
}

// writeTrace writes the stamp and every span as JSON lines to path.
func writeTrace(path string, st stamp, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating trace directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace file: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"stamp": st}); err != nil {
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
