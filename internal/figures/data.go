// Package figures regenerates every table and figure of the paper's
// evaluation from a simulation run. Each function returns structured
// rows; the CLI, the benchmarks, and EXPERIMENTS.md all consume the same
// implementations, so the numbers reported anywhere in this repository
// come from exactly one code path per experiment.
package figures

import (
	"context"
	"sync"

	"rainshine/internal/cart"
	"rainshine/internal/envan"
	"rainshine/internal/frame"
	"rainshine/internal/ingest"
	"rainshine/internal/metrics"
	"rainshine/internal/parallel"
	"rainshine/internal/predict"
	"rainshine/internal/provision"
	"rainshine/internal/simulate"
	"rainshine/internal/skucmp"
	"rainshine/internal/topology"
)

// cell is one compute-once slot of the study memo. The first caller runs
// fn; concurrent callers wait for it and share its value. A computation
// that fails while its caller's context is done is not stored: the next
// caller recomputes under its own context, so a waiter whose context is
// still live never inherits another caller's cancellation.
type cell[T any] struct {
	mu   sync.Mutex
	busy chan struct{} // non-nil while a computation runs; closed when it ends
	done bool
	v    T
	err  error
}

func (c *cell[T]) getContext(ctx context.Context, fn func() (T, error)) (v T, err error) {
	for {
		c.mu.Lock()
		if c.done {
			v, err = c.v, c.err
			c.mu.Unlock()
			return v, err
		}
		busy := c.busy
		if busy == nil {
			break
		}
		c.mu.Unlock()
		select {
		case <-busy:
		case <-ctx.Done():
			return v, ctx.Err()
		}
	}
	// This caller computes; a panicking fn leaves the cell empty.
	busy := make(chan struct{})
	c.busy = busy
	c.mu.Unlock()
	store := false
	defer func() {
		c.mu.Lock()
		if store {
			c.v, c.err, c.done = v, err, true
		}
		c.busy = nil
		c.mu.Unlock()
		close(busy)
	}()
	v, err = fn()
	store = err == nil || ctx.Err() == nil
	return v, err
}

// Data wraps a simulation result with the study memo: every derived
// artifact — the rack-day frame, the DataQuality report, each table and
// figure, and the analyses behind the facade's Q1-Q3 and predict
// answers — is computed at most once per study, on first use, and
// shared by every later caller on any goroutine. Memoized values are
// shared and must be treated as read-only.
type Data struct {
	Res *simulate.Result

	// memo maps a key to its *cell; each key has its own cell, so
	// independent artifacts materialize concurrently without waiting
	// on each other.
	memo sync.Map
}

// NewDataContext runs a simulation and wraps its result. In dirty-data
// mode (cfg.Faults set) the recorded streams pass through the ingest
// quarantine/repair pipeline before any analysis sees them; the clean
// path skips scrubbing entirely so results stay bit-identical to the
// seed runs. Cancellation aborts the simulation (and skips the scrub).
func NewDataContext(ctx context.Context, cfg simulate.Config) (*Data, error) {
	res, err := simulate.RunContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		rep, err := ingest.Scrub(res)
		if err != nil {
			return nil, err
		}
		return FromWithQuality(res, rep), nil
	}
	return From(res), nil
}

// From wraps an existing simulation result.
func From(res *simulate.Result) *Data { return &Data{Res: res} }

// FromWithQuality wraps an existing simulation result whose DataQuality
// report was already produced elsewhere (the dirty-data scrub, or a
// stream reconstruction that accumulates the report as records arrive).
// Quality serves rep instead of re-auditing.
func FromWithQuality(res *simulate.Result, rep *ingest.Report) *Data {
	d := &Data{Res: res}
	if rep != nil {
		d.memo.Store(keyQuality, &cell[*ingest.Report]{v: rep, done: true})
	}
	return d
}

const (
	keyQuality  = "quality"
	keyRackDays = "rackdays"
)

// Fork returns a Data over the same simulation whose memo holds only
// d's rack-day frame and quality report, so every analysis on it is
// computed afresh; benchmarks use it to time work rather than memo hits.
func (d *Data) Fork() *Data {
	n := &Data{Res: d.Res}
	for _, k := range []string{keyQuality, keyRackDays} {
		if c, ok := d.memo.Load(k); ok {
			n.memo.Store(k, c)
		}
	}
	return n
}

// Quality returns the DataQuality report of the telemetry backing the
// analyses. Dirty studies report the scrub that already ran; clean
// studies run a non-mutating audit on first call.
func (d *Data) Quality() (*ingest.Report, error) {
	return cached(d, keyQuality, func() (*ingest.Report, error) {
		return ingest.Audit(d.Res)
	})
}

// RackDays returns the (cached) rack-day λ frame.
func (d *Data) RackDays() (*frame.Frame, error) {
	return cached(d, keyRackDays, func() (*frame.Frame, error) {
		return metrics.RackDayFrame(d.Res)
	})
}

// cached is cachedContext with context.Background(): the computation
// cannot be canceled, so its result is always stored.
func cached[T any](d *Data, key string, fn func() (T, error)) (T, error) {
	return cachedContext(context.Background(), d, key, fn)
}

// cachedContext returns the memoized value of key, running fn on the
// first call. fn should observe ctx; if it fails after ctx is done, the
// failure is returned to this caller only and the cell stays empty.
func cachedContext[T any](ctx context.Context, d *Data, key string, fn func() (T, error)) (T, error) {
	c, ok := d.memo.Load(key)
	if !ok {
		c, _ = d.memo.LoadOrStore(key, &cell[T]{})
	}
	return c.(*cell[T]).getContext(ctx, fn)
}

func discardErr[T any](fn func(d *Data) (T, error)) func(d *Data) error {
	return func(d *Data) error { _, err := fn(d); return err }
}

// warmables lists every table and figure Warmup materializes, in paper
// order. The shared rack-day frame is warmed first (alone) so the fan-out
// hits a populated cache instead of convoying on its cell.
var warmables = []func(d *Data) error{
	func(d *Data) error { d.TableI(); return nil },
	func(d *Data) error { d.TableII(); return nil },
	func(d *Data) error { d.TableIII(); return nil },
	discardErr((*Data).TableIV),
	discardErr((*Data).Fig1),
	discardErr((*Data).Fig2),
	discardErr((*Data).Fig3),
	discardErr((*Data).Fig4),
	discardErr((*Data).Fig5),
	discardErr((*Data).Fig6),
	discardErr((*Data).Fig7),
	discardErr((*Data).Fig8),
	discardErr((*Data).Fig9),
	discardErr((*Data).Fig10),
	discardErr((*Data).Fig11),
	discardErr((*Data).Fig12),
	discardErr((*Data).Fig13),
	discardErr((*Data).Fig14),
	discardErr((*Data).Fig15),
	discardErr((*Data).Fig16),
	discardErr((*Data).Fig17),
	discardErr((*Data).Fig18),
}

// Warmup materializes every table and figure through the worker pool.
// The figures share their analysis cells with the facade's answers, so
// this also pre-computes the Q3 environmental analysis, the Q1 server-
// level analyses of W1 and W6, and the Q2 S2/S4 statistics. The first
// error (in paper order) is returned, but warming continues for the
// remaining entries; a canceled ctx stops scheduling new ones.
func (d *Data) Warmup(ctx context.Context, workers int) error {
	// The rack-day frame feeds nearly every figure: build it once up
	// front instead of having the whole pool convoy on its cell.
	if _, err := d.RackDays(); err != nil {
		return err
	}
	return parallel.ForEach(ctx, workers, len(warmables), func(i int) error {
		return warmables[i](d)
	})
}

// EnvAnalysis is EnvAnalysisContext with context.Background().
func (d *Data) EnvAnalysis() (*envan.Result, error) {
	return d.EnvAnalysisContext(context.Background())
}

// EnvAnalysisContext returns the study's Q3 multi-factor environmental
// analysis, the one result behind Fig 18, the facade's climate guidance
// and the stream envelope. It fans across the study's worker pool; ctx
// cancels a computation in progress, which is then not stored.
func (d *Data) EnvAnalysisContext(ctx context.Context) (*envan.Result, error) {
	return cachedContext(ctx, d, "envan", func() (*envan.Result, error) {
		f, err := d.RackDays()
		if err != nil {
			return nil, err
		}
		return envan.AnalyzeContext(ctx, f, cart.Config{Workers: d.Res.Cfg.Workers})
	})
}

// ServerLevel returns the Q1-A analysis of a workload at a granularity
// over the default SLAs, shared by Figs 1 and 10-12, Table IV and the
// facade's spare provisioning answer.
func (d *Data) ServerLevel(wl topology.Workload, g metrics.Granularity) (*provision.ServerLevel, error) {
	return cached(d, "serverlevel/"+wl.String()+"/"+g.String(), func() (*provision.ServerLevel, error) {
		return provision.AnalyzeServerLevel(d.Res, wl, g, nil)
	})
}

// SKUStats is the Q2 contrast of the two compute SKUs, S2 and S4: the
// SF and MF rate estimates and the paired significance test, whose
// failure (too few shared strata) is kept apart so Fig 15 still renders.
// Price ratios are not part of it; TCO verdicts are derived per call.
type SKUStats struct {
	SF, MF []skucmp.Stats
	Sig    *skucmp.Significance
	SigErr error
}

// VendorStats returns the S2/S4 statistics shared by Fig 15 and the
// facade's vendor comparison.
func (d *Data) VendorStats() (*SKUStats, error) {
	return cached(d, "skustats", func() (*SKUStats, error) {
		f, err := d.RackDays()
		if err != nil {
			return nil, err
		}
		pair := []topology.SKU{topology.S2, topology.S4}
		sf, err := skucmp.AnalyzeSF(f, pair)
		if err != nil {
			return nil, err
		}
		mf, err := skucmp.AnalyzeMF(f, pair)
		if err != nil {
			return nil, err
		}
		sig, err := skucmp.MFSignificance(f, topology.S2, topology.S4)
		return &SKUStats{SF: sf, MF: mf, Sig: sig, SigErr: err}, nil
	})
}

// Prediction returns the rack-day failure predictor trained and
// evaluated on the study's telemetry.
func (d *Data) Prediction() (*predict.Result, error) {
	return cached(d, "predict", func() (*predict.Result, error) {
		f, err := d.RackDays()
		if err != nil {
			return nil, err
		}
		return predict.Train(f, predict.Config{Balance: true, Workers: d.Res.Cfg.Workers})
	})
}
