package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rainshine"
	"rainshine/internal/ingest"
	"rainshine/internal/server"
	"rainshine/internal/simulate"
)

// endpoints are the /v1 analyses the serve workloads query.
var endpoints = []string{"q1", "q2", "q3", "predict", "quality"}

// warmLayer names the direct in-process call behind each endpoint.
var warmLayer = map[string]string{
	"q1":      "provision.q1_warm",
	"q2":      "skucmp.q2_warm",
	"q3":      "envan.q3_warm",
	"predict": "predict.train_warm",
	"quality": "ingest.quality_warm",
}

// ratioSets are the Q2 price-ratio lists the serve workloads ask for.
var ratioSets = []string{"1.0,1.5", "1.2", "0.8,1.25,2"}

// query is one distinct /v1 request.
type query struct {
	cfg      server.StudyConfig
	endpoint string
	params   url.Values // evaluation parameters only
}

// key identifies the answer: the study and the question.
func (q query) key() string {
	return q.cfg.Key() + " " + q.endpoint + "?" + q.params.Encode()
}

func (q query) path() string {
	v := url.Values{}
	for k, vs := range q.params {
		v[k] = vs
	}
	c := q.cfg.Normalize()
	v.Set("seed", strconv.FormatUint(c.Seed, 10))
	v.Set("days", strconv.Itoa(c.Days))
	v.Set("racks", fmt.Sprintf("%d,%d", c.Racks[0], c.Racks[1]))
	v.Set("faults", strconv.FormatBool(c.Faults))
	return "/v1/" + q.endpoint + "?" + v.Encode()
}

// queriesFor lists every distinct question the workload asks of one
// study: Q1 for each workload at daily and hourly granularity, Q2 at
// each ratio set, quality, and, when heavy is set, Q3 and predict.
func queriesFor(cfg server.StudyConfig, heavy bool) []query {
	var qs []query
	for w := rainshine.W1; w <= rainshine.W7; w++ {
		for _, h := range []string{"false", "true"} {
			qs = append(qs, query{cfg, "q1", url.Values{"workload": {w.String()}, "hourly": {h}}})
		}
	}
	for _, r := range ratioSets {
		qs = append(qs, query{cfg, "q2", url.Values{"ratios": {r}}})
	}
	qs = append(qs, query{cfg, "quality", url.Values{}})
	if heavy {
		qs = append(qs, query{cfg, "q3", url.Values{}}, query{cfg, "predict", url.Values{}})
	}
	return qs
}

// answer makes the facade call behind q in-process and encodes it the
// way the daemon does, so the bytes can be compared.
func answer(ctx context.Context, st *rainshine.Study, q query) ([]byte, error) {
	var rep any
	var err error
	switch q.endpoint {
	case "q1":
		wl, perr := rainshine.ParseWorkload(q.params.Get("workload"))
		if perr != nil {
			return nil, perr
		}
		rep, err = st.SpareProvisioning(wl, q.params.Get("hourly") == "true")
	case "q2":
		var ratios []float64
		for _, s := range strings.Split(q.params.Get("ratios"), ",") {
			r, perr := strconv.ParseFloat(s, 64)
			if perr != nil {
				return nil, perr
			}
			ratios = append(ratios, r)
		}
		rep, err = st.VendorComparison(ratios...)
	case "q3":
		rep, err = st.ClimateGuidanceContext(ctx)
	case "predict":
		rep, err = st.FailurePrediction()
	case "quality":
		rep, err = st.Quality()
	default:
		return nil, fmt.Errorf("unknown endpoint %q", q.endpoint)
	}
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(rep)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// judge decides whether one HTTP answer is correct: a refused, failed,
// degraded or wrong answer is a failed operation.
func judge(status int, degraded string, key string, body []byte, chk *checker) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", key, status, strings.TrimSpace(string(body)))
	}
	if degraded != "" {
		return fmt.Errorf("%s: degraded answer (%s)", key, degraded)
	}
	return chk.check(key, body)
}

// serve is the serve_hot and serve_churn workloads: server.New with the
// daemon defaults plus Warmup on loopback HTTP, driven by closed-loop
// clients that send a fixed seeded request sequence.
type serve struct {
	seed  uint64
	churn bool

	queries  []query
	seq      []int // request sequence: indexes into queries
	settle   []int // quality of every study, clean and dirty alternating
	expected map[string][]byte
	chk      *checker
	skipped  int // churn candidates the study cannot answer

	clients int
	client  *http.Client
	next    atomic.Int64

	srv  *server.Server
	hs   *http.Server
	base string
	done chan error

	layers map[string][]float64 // probe timings taken in prepare
	p50    map[string]float64
}

func newServe(seed uint64, churn bool) *serve {
	// Load comes from at most as many closed-loop clients (and
	// connections) as there are CPUs, and at most two.
	n := min(2, runtime.NumCPU())
	return &serve{
		seed:    seed,
		churn:   churn,
		clients: n,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
			DisableCompression:  true,
		}},
		layers: map[string][]float64{},
	}
}

func (s *serve) setupReps() int {
	if s.churn {
		return 5
	}
	return 3
}

func (s *serve) tailGated() bool { return true }

// serve_churn cycles through churnConfigs small studies, 3x the
// daemon's default 4-slot cache. They differ in seed and in dirtiness,
// not in size, so the work per build and the cache's footprint do not
// depend on which studies the seed draws.
const (
	churnConfigs = 12
	churnDays    = 90
	churnDC1     = 56
	churnDC2     = 48
)

// prepare builds every study the workload asks about in-process, with
// the daemon's warmup, and records the expected answer to each
// question; then it draws the seeded request sequence.
func (s *serve) prepare(ctx context.Context, tr *tracer) error {
	rng := rand.New(rand.NewPCG(s.seed, 1))
	s.expected = map[string][]byte{}
	if !s.churn {
		cfg := server.StudyConfig{Seed: s.seed}.Normalize()
		qs := queriesFor(cfg, true)
		if _, err := s.expectAnswers(ctx, tr, cfg, qs); err != nil {
			return err
		}
		s.queries = qs
	}
	for attempts, n := 0, 0; s.churn && n < churnConfigs; attempts++ {
		if attempts == 4*churnConfigs {
			return fmt.Errorf("only %d of %d candidate churn studies answer every question", n, attempts)
		}
		cfg := server.StudyConfig{
			Seed:   1 + rng.Uint64N(1<<31),
			Days:   churnDays,
			Racks:  [2]int{churnDC1, churnDC2},
			Faults: n%2 == 1,
		}.Normalize()
		qs := queriesFor(cfg, false)
		ok, err := s.expectAnswers(ctx, tr, cfg, qs)
		if err != nil {
			return err
		}
		if !ok {
			s.skipped++
			continue
		}
		s.queries = append(s.queries, qs...)
		n++
	}
	s.chk = newChecker(s.expected)
	s.drawSequence()
	return nil
}

// drawSequence draws the request sequence from the workload seed. The
// mix is exact in every block of requests, so seeds differ in order and
// parameters but not in how much of each kind of work a window holds.
// serve_hot sends 4 q1, 2 q2, 2 quality, 1 predict and 1 q3 per 10
// requests to its one study. serve_churn sends 4 q1, 2 q2 and 2 quality
// per 8 requests, and takes its studies from successive seeded
// permutations of every config, so a config recurs only after all the
// others.
func (s *serve) drawSequence() {
	rng := rand.New(rand.NewPCG(s.seed, 2))
	block := []string{"q1", "q1", "q1", "q1", "q2", "q2", "quality", "quality"}
	if !s.churn {
		block = append(block, "predict", "q3")
	}
	// Studies are visited in cycles that alternate clean and dirty ones
	// (serve_churn has as many of each), so any run of consecutive
	// requests, and the set the cache holds when the window ends, has
	// as many of one kind as of the other.
	var clean, dirty []string
	byStudy := map[string][]int{} // study key + endpoint -> query indexes
	for i, q := range s.queries {
		k := q.cfg.Key()
		if q.endpoint == "quality" {
			if q.cfg.Faults {
				dirty = append(dirty, k)
			} else {
				clean = append(clean, k)
			}
		}
		byStudy[k+" "+q.endpoint] = append(byStudy[k+" "+q.endpoint], i)
	}
	s.settle = nil
	for _, k := range alternate(clean, dirty, identity(len(clean)), identity(len(dirty))) {
		s.settle = append(s.settle, byStudy[k+" quality"][0])
	}
	s.seq = make([]int, 1<<13)
	var eps, cycle []string
	for i := range s.seq {
		if i%len(block) == 0 {
			eps = append([]string(nil), block...)
			rng.Shuffle(len(eps), func(a, b int) { eps[a], eps[b] = eps[b], eps[a] })
		}
		if i%len(s.settle) == 0 {
			cycle = alternate(clean, dirty, rng.Perm(len(clean)), rng.Perm(len(dirty)))
		}
		cands := byStudy[cycle[i%len(cycle)]+" "+eps[i%len(block)]]
		s.seq[i] = cands[rng.IntN(len(cands))]
	}
}

// alternate lists clean[cp[0]], dirty[dp[0]], clean[cp[1]], ... until
// both lists are used up.
func alternate(clean, dirty []string, cp, dp []int) []string {
	var out []string
	for j := 0; j < max(len(cp), len(dp)); j++ {
		if j < len(cp) {
			out = append(out, clean[cp[j]])
		}
		if j < len(dp) {
			out = append(out, dirty[dp[j]])
		}
	}
	return out
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// expectAnswers builds cfg's study as the daemon would and records the
// answer to every query. It reports false when the study cannot answer
// one of them (small fleets can lack the strata Q2 needs); serve_churn
// then draws another config. In a traced run each step is timed: the
// build, the warmup, and each direct call, repeated three times on the
// warm study.
func (s *serve) expectAnswers(ctx context.Context, tr *tracer, cfg server.StudyConfig, qs []query) (bool, error) {
	root := tr.start(-1, "bench.expect")
	defer tr.end(root)
	t0 := time.Now()
	sp := tr.start(root, "simulate.run")
	st, err := rainshine.NewStudyContext(ctx, cfg.Options()...)
	tr.end(sp)
	if err != nil {
		return false, fmt.Errorf("building %s: %w", cfg.Key(), err)
	}
	t1 := time.Now()
	sp = tr.start(root, "figures.warmup")
	err = st.Warmup(ctx)
	tr.end(sp)
	t2 := time.Now()
	if err != nil {
		if s.churn {
			return false, nil
		}
		return false, fmt.Errorf("warming %s: %w", cfg.Key(), err)
	}
	s.layers["simulate.run_ms"] = append(s.layers["simulate.run_ms"], ms(t1.Sub(t0)))
	s.layers["figures.warmup_ms"] = append(s.layers["figures.warmup_ms"], ms(t2.Sub(t1)))
	reps := 1
	if tr != nil {
		reps = 3
	}
	got := map[string][]byte{}
	for rep := 0; rep < reps; rep++ {
		for _, q := range qs {
			sp := tr.start(root, warmLayer[q.endpoint])
			a0 := time.Now()
			body, err := answer(ctx, st, q)
			a1 := time.Now()
			tr.end(sp)
			if err != nil {
				if s.churn {
					return false, nil
				}
				return false, fmt.Errorf("%s: %w", q.key(), err)
			}
			s.layers[warmLayer[q.endpoint]+"_ms"] = append(s.layers[warmLayer[q.endpoint]+"_ms"], ms(a1.Sub(a0)))
			if prev, ok := got[q.key()]; ok && string(prev) != string(body) {
				return false, fmt.Errorf("%s: in-process answer changed between calls", q.key())
			}
			got[q.key()] = body
		}
	}
	for k, v := range got {
		s.expected[k] = v
	}
	return true, nil
}

// setupOnce starts a fresh daemon and times it from server.New to the
// first correct 200, including the study build and warmup it triggers.
func (s *serve) setupOnce(ctx context.Context, tr *tracer, t *tally) (time.Duration, error) {
	if err := s.stop(); err != nil {
		return 0, err
	}
	root := tr.start(-1, "bench.setup")
	defer tr.end(root)
	start := time.Now()
	sp := tr.start(root, "server.new")
	s.srv = server.New(server.Config{Warmup: true, Logf: func(string, ...any) {}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("listening on loopback: %w", err)
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.done = make(chan error, 1)
	go func() { s.done <- s.hs.Serve(ln) }()
	tr.end(sp)
	q := s.queries[s.settle[0]]
	sp = tr.start(root, "server.first_answer")
	err = s.do(ctx, q)
	tr.end(sp)
	d := time.Since(start)
	t.add(err)
	if err != nil {
		return 0, err
	}
	return d, nil
}

// do sends q and judges the answer.
func (s *serve) do(ctx context.Context, q query) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+q.path(), nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s: reading body: %w", q.key(), err)
	}
	return judge(resp.StatusCode, resp.Header.Get("X-Rainshine-Degraded"), q.key(), body, s.chk)
}

// window runs the closed-loop clients until d has passed: each sends
// the next request of the shared sequence once its previous one has
// been answered.
func (s *serve) window(ctx context.Context, d time.Duration, tr *tracer, t *tally) (window, error) {
	var w window
	start := time.Now()
	deadline := start.Add(d)
	var mu sync.Mutex
	var wg sync.WaitGroup
	var last time.Time
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []float64
			ok := 0
			var end time.Time
			for time.Now().Before(deadline) {
				q := s.queries[s.seq[int(s.next.Add(1)-1)%len(s.seq)]]
				sp := tr.start(-1, "server."+q.endpoint)
				t0 := time.Now()
				err := s.do(ctx, q)
				end = time.Now()
				tr.end(sp)
				lat = append(lat, ms(end.Sub(t0)))
				t.add(err)
				if err == nil {
					ok++
				}
			}
			mu.Lock()
			w.latMS = append(w.latMS, lat...)
			w.ok += ok
			if end.After(last) {
				last = end
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	w.wall = last.Sub(start)
	// Which studies the registry holds when the clients stop depends on
	// how their requests interleaved. Asking every study in a fixed
	// order, twice, leaves the cache and its last-good store in the same
	// state on every run before the heap is read: the second round
	// misses on every study (the cycle is longer than the cache), so it
	// rebuilds and re-stores each one in order.
	for range 2 {
		for _, i := range s.settle {
			t.add(s.do(ctx, s.queries[i]))
		}
	}
	w.heapMB = liveHeapMB()
	runtime.KeepAlive(s.srv)
	if tr != nil {
		s.p50 = map[string]float64{}
		spans := tr.snapshot()
		for _, ep := range endpoints {
			if v := durations(spans, "server."+ep); len(v) > 0 {
				s.p50[ep] = median(v)
			}
		}
	}
	return w, nil
}

// finish reads the daemon's counters and, in a traced run, fills the
// serve layer metrics.
func (s *serve) finish(ctx context.Context, tr *tracer, t *tally, layers map[string]float64) error {
	if layers == nil {
		return nil
	}
	for name, vals := range s.layers {
		layers[name] = median(vals)
	}
	var gaps []float64
	for ep, p := range s.p50 {
		layers["server."+ep+".p50_ms"] = p
		if direct, ok := s.layers[warmLayer[ep]+"_ms"]; ok {
			gaps = append(gaps, p-median(direct))
		}
	}
	layers["server.overhead_ms"] = median(gaps)
	snap := s.srv.Metrics().Snapshot(4)
	c := snap.Cache
	if c.Hits+c.Misses > 0 {
		layers["server.cache_hit_ratio"] = float64(c.Hits) / float64(c.Hits+c.Misses)
	}
	layers["server.dedup_joins"] = float64(c.DedupJoins)
	layers["server.evictions"] = float64(c.Evictions)
	layers["server.builds_completed"] = float64(snap.Builds.Completed)
	layers["server.shed_total"] = float64(snap.Resilience.ShedTotal())
	layers["server.degraded_served"] = float64(snap.Resilience.DegradedServed)
	if s.churn {
		return s.probeScrub(ctx, tr, layers)
	}
	return nil
}

// probeScrub times the ingest scrub of each dirty churn study on its
// freshly simulated telemetry.
func (s *serve) probeScrub(ctx context.Context, tr *tracer, layers map[string]float64) error {
	seen := map[string]bool{}
	var vals []float64
	for _, q := range s.queries {
		if !q.cfg.Faults || seen[q.cfg.Key()] {
			continue
		}
		seen[q.cfg.Key()] = true
		var cfg simulate.Config
		for _, o := range q.cfg.Options() {
			o(&cfg)
		}
		res, err := simulate.RunContext(ctx, cfg)
		if err != nil {
			return err
		}
		sp := tr.start(-1, "ingest.scrub")
		t0 := time.Now()
		_, err = ingest.Scrub(res)
		vals = append(vals, ms(time.Since(t0)))
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	layers["ingest.scrub_ms"] = median(vals)
	return nil
}

// stop shuts the running daemon down and waits for it to exit.
func (s *serve) stop() error {
	if s.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	s.hs, s.srv = nil, nil
	return err
}

func (s *serve) close() {
	if err := s.stop(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: stopping the daemon: %v\n", err)
	}
}

func (s *serve) extras() [][3]string {
	var out [][3]string
	if s.churn {
		out = append(out, [3]string{"studies", strconv.Itoa(churnConfigs), fmt.Sprintf("small configs, half dirty (%d candidates skipped: a study could not answer every question)", s.skipped)})
	}
	if s.srv != nil {
		c := s.srv.Metrics().Snapshot(4).Cache
		out = append(out, [3]string{"cache", fmt.Sprintf("%d/%d", c.Hits, c.Hits+c.Misses),
			fmt.Sprintf("hits/lookups, %d evictions, %d singleflight joins", c.Evictions, c.DedupJoins)})
	}
	return out
}
