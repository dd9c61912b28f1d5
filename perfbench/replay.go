package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"time"

	"rainshine"
	"rainshine/internal/faults"
	"rainshine/internal/figures"
	"rainshine/internal/ingest"
	"rainshine/internal/simulate"
	"rainshine/internal/stream"
)

// Size of the replayed study: the CLI's reduced study (-small). A
// replay takes about half a second. Much smaller studies make the
// process collect garbage a hundred times a second, and every collection
// waits for both CPUs, which made their replay times swing with the
// host's load far more than the other workloads'.
const (
	replayDays  = 365
	replayRacks = "120,100"
)

// replay is the stream_replay workload: a dirty study's log, reordered
// within the lateness slack, replayed through the watermark maintainer
// with live refits on, finalized, and rendered as the study envelope.
// The replay law makes the check exact: the envelope must equal the
// batch study's byte for byte.
type replay struct {
	seed uint64
	opts []rainshine.Option
	cfg  simulate.Config
	log  []byte
	chk  *checker

	last    *figures.Data // the last replay's study, live until close
	layers  map[string][]float64
	records int
	stats   stream.Stats
	quar    int
	replayS float64
}

func newReplay(seed uint64) *replay {
	a, b, _ := rainshine.ParseRacks(replayRacks)
	opts := []rainshine.Option{rainshine.WithSeed(seed), rainshine.WithDays(replayDays),
		rainshine.WithRacks(a, b), rainshine.WithFaults(rainshine.DefaultFaults())}
	cfg := simulate.Config{Seed: rainshine.DefaultSeed}
	for _, o := range opts {
		o(&cfg)
	}
	return &replay{seed: seed, opts: opts, cfg: cfg, layers: map[string][]float64{}}
}

func (r *replay) setupReps() int  { return 21 }
func (r *replay) tailGated() bool { return false }
func (r *replay) close()          { r.last, r.log = nil, nil }

// prepare simulates the dirty study, writes its reordered log, and
// computes the batch envelope the replay must reproduce.
func (r *replay) prepare(ctx context.Context, tr *tracer) error {
	root := tr.start(-1, "bench.prepare")
	defer tr.end(root)
	sp := tr.start(root, "simulate.run")
	t0 := time.Now()
	res, err := simulate.RunContext(ctx, r.cfg)
	r.layers["simulate.run_ms"] = []float64{ms(time.Since(t0))}
	tr.end(sp)
	if err != nil {
		return err
	}
	recs, err := stream.Records(res)
	if err != nil {
		return err
	}
	recs = stream.CorruptRecords(recs, faults.NewChaos(faults.ChaosConfig{Seed: r.seed, StreamReorderRate: 0.25}))
	reps := 1
	if tr != nil {
		reps = 3
	}
	for i := 0; i < reps; i++ {
		var buf bytes.Buffer
		sp := tr.start(root, "stream.write")
		t0 := time.Now()
		err := stream.WriteLog(&buf, recs)
		r.layers["stream.write_ms"] = append(r.layers["stream.write_ms"], ms(time.Since(t0)))
		tr.end(sp)
		if err != nil {
			return err
		}
		r.log = buf.Bytes()
	}
	st, err := rainshine.NewStudyContext(ctx, r.opts...)
	if err != nil {
		return err
	}
	want, err := stream.EnvelopeJSON(ctx, st.Figures())
	if err != nil {
		return fmt.Errorf("batch envelope: %w", err)
	}
	r.chk = newChecker(map[string][]byte{"envelope": want})
	return nil
}

// setupOnce times building the maintainer's substrate.
func (r *replay) setupOnce(ctx context.Context, tr *tracer, t *tally) (time.Duration, error) {
	sp := tr.start(-1, "stream.new_maintainer")
	t0 := time.Now()
	_, err := stream.NewMaintainer(stream.Config{Sim: r.cfg})
	d := time.Since(t0)
	tr.end(sp)
	return d, err
}

// replayOnce is one operation: first record to envelope bytes.
func (r *replay) replayOnce(ctx context.Context) (*figures.Data, *stream.Maintainer, []byte, error) {
	rd, err := stream.NewReader(bytes.NewReader(r.log))
	if err != nil {
		return nil, nil, nil, err
	}
	m, err := stream.Replay(ctx, rd, stream.Config{Sim: r.cfg})
	if err != nil {
		return nil, nil, nil, err
	}
	d, err := m.Finalize(ctx)
	if err != nil {
		return nil, nil, nil, err
	}
	env, err := stream.EnvelopeJSON(ctx, d)
	return d, m, env, err
}

// replayTraced is replayOnce in phases, each a span: decode the log,
// apply every record (the applies that advance the watermark are
// day-close spans), finalize, build the rack-day frame, and render the
// envelope.
func (r *replay) replayTraced(ctx context.Context, tr *tracer) (*figures.Data, *stream.Maintainer, []byte, error) {
	root := tr.start(-1, "bench.replay")
	defer tr.end(root)
	sp := tr.start(root, "stream.read")
	rd, err := stream.NewReader(bytes.NewReader(r.log))
	var recs []stream.Record
	for err == nil {
		var rec stream.Record
		rec, err = rd.Next()
		if err == nil {
			recs = append(recs, rec)
			if rec.Kind == stream.KindSeal {
				break
			}
		}
	}
	tr.end(sp)
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, nil, nil, err
	}
	r.records = len(recs)
	sp = tr.start(root, "stream.new_maintainer")
	m, err := stream.NewMaintainer(stream.Config{Sim: r.cfg})
	tr.end(sp)
	if err != nil {
		return nil, nil, nil, err
	}
	sp = tr.start(root, "stream.apply")
	for i := range recs {
		wm := m.Watermark()
		a0 := time.Now()
		if err := m.Apply(ctx, &recs[i]); err != nil {
			tr.end(sp)
			return nil, nil, nil, err
		}
		if m.Watermark() != wm {
			tr.record(sp, "stream.dayclose", a0, time.Now())
		}
	}
	tr.end(sp)
	sp = tr.start(root, "stream.finalize")
	d, err := m.Finalize(ctx)
	tr.end(sp)
	if err != nil {
		return nil, nil, nil, err
	}
	sp = tr.start(root, "metrics.rackday_frame")
	_, err = d.RackDays()
	tr.end(sp)
	if err != nil {
		return nil, nil, nil, err
	}
	sp = tr.start(root, "stream.envelope")
	env, err := stream.EnvelopeJSON(ctx, d)
	tr.end(sp)
	return d, m, env, err
}

// replaySlices is how many equal parts the window is cut into for the
// latency metrics. Replays are alike, so a second or two of CPU taken
// by the host would otherwise decide the tail of a whole run; the
// median over slices reports the tail of a typical part instead.
const replaySlices = 5

// window replays the log until d has passed (at least two replays).
func (r *replay) window(ctx context.Context, d time.Duration, tr *tracer, t *tally) (window, error) {
	w := window{slices: make([][]float64, replaySlices)}
	start := time.Now()
	for len(w.latMS) < 2 || time.Since(start) < d {
		t0 := time.Now()
		slice := min(int(t0.Sub(start)*replaySlices/d), replaySlices-1)
		var data *figures.Data
		var m *stream.Maintainer
		var env []byte
		var err error
		if tr == nil {
			data, m, env, err = r.replayOnce(ctx)
		} else {
			data, m, env, err = r.replayTraced(ctx, tr)
		}
		w.latMS = append(w.latMS, ms(time.Since(t0)))
		w.slices[slice] = append(w.slices[slice], w.latMS[len(w.latMS)-1])
		if err == nil {
			err = r.chk.check("envelope", env)
		}
		t.add(err)
		if err == nil {
			w.ok++
			r.last = data
			r.stats = m.Stats()
			q, qerr := data.Quality()
			if qerr != nil {
				return w, qerr
			}
			live := m.Quality()
			r.quar = quarantined(q) + quarantined(&live)
		}
	}
	w.wall = time.Since(start)
	r.replayS = w.latency(median) / 1000
	w.heapMB = liveHeapMB()
	runtime.KeepAlive(r.last)
	runtime.KeepAlive(r.log)
	return w, nil
}

func quarantined(q *ingest.Report) int {
	n := 0
	for _, c := range q.Quarantined {
		n += c
	}
	return n
}

func (r *replay) finish(ctx context.Context, tr *tracer, t *tally, layers map[string]float64) error {
	if layers == nil {
		return nil
	}
	for name, vals := range r.layers {
		layers[name] = median(vals)
	}
	spans := tr.snapshot()
	for name, vals := range perRoot(spans, "bench.replay") {
		layers[name+"_ms"] = median(vals)
	}
	closes := durations(spans, "stream.dayclose")
	layers["stream.dayclose_p50_ms"] = median(closes)
	layers["stream.dayclose_p95_ms"] = percentile(closes, 95)
	if r.last != nil {
		f, err := r.last.RackDays()
		if err != nil {
			return err
		}
		layers["metrics.rackday_rows"] = float64(f.NumRows())
	}
	layers["stream.records"] = float64(r.records)
	layers["stream.refits"] = float64(r.stats.Refits)
	layers["ingest.quarantined"] = float64(r.quar)
	layers["trace.coverage"] = median(coverage(spans, "bench.replay"))
	return nil
}

func (r *replay) extras() [][3]string {
	return [][3]string{
		{"replay_s", strconv.FormatFloat(r.replayS, 'f', 4, 64), "s  (latency_p50_ms of a replay)"},
	}
}
