package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rainshine"
	"rainshine/internal/leakcheck"
)

// loadConfigs are the three distinct study configs the load test mixes;
// the acceptance criterion is that exactly three builds occur no matter
// how many concurrent clients ask for them.
var loadConfigs = []struct {
	query string
	opts  []rainshine.Option
}{
	{"seed=42&days=150&racks=30,26", []rainshine.Option{
		rainshine.WithSeed(42), rainshine.WithDays(150), rainshine.WithRacks(30, 26)}},
	{"seed=43&days=150&racks=30,26", []rainshine.Option{
		rainshine.WithSeed(43), rainshine.WithDays(150), rainshine.WithRacks(30, 26)}},
	{"seed=44&days=150&racks=30,26", []rainshine.Option{
		rainshine.WithSeed(44), rainshine.WithDays(150), rainshine.WithRacks(30, 26)}},
}

// TestServeLoad fires 32 parallel clients at a mixed-endpoint workload
// across 3 distinct study configs and asserts (a) every response is
// 200, (b) singleflight + LRU admit exactly 3 study builds, observed
// through /metricz, and (c) the served Q1-Q3 JSON is byte-identical to
// what the batch library path produces for the same config.
//
// `make serve-load` runs this under -race and records the throughput
// summary to BENCH_serve.json (RAINSHINE_BENCH_OUT).
func TestServeLoad(t *testing.T) {
	leakcheck.Check(t)
	const (
		clients           = 32
		requestsPerClient = 6
	)
	// Warmup on: each build pre-materializes its memo through
	// the study's worker pool before the registry publishes it, so the
	// race detector sees the concurrent warmup path under real load.
	srv := New(Config{CacheSize: len(loadConfigs), Timeout: time.Minute, Logf: t.Logf, Warmup: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	endpoints := []string{
		"/v1/q1?%s&workload=W6",
		"/v1/q1?%s&workload=W1&hourly=true",
		"/v1/q2?%s",
		"/v1/q2?%s&ratios=1.0,1.5,2.0",
		"/v1/q3?%s",
		"/v1/predict?%s",
		"/v1/quality?%s",
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for j := 0; j < requestsPerClient; j++ {
				cfg := loadConfigs[(c+j)%len(loadConfigs)]
				path := fmt.Sprintf(endpoints[(c*requestsPerClient+j)%len(endpoints)], cfg.query)
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Errorf("client %d: GET %s: %v", c, path, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: GET %s = %d: %s", c, path, resp.StatusCode, body)
				}
			}
		}(c)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	wall := time.Since(t0)

	// The registry must have deduplicated every concurrent build: three
	// distinct configs, exactly three builds, nothing evicted.
	snap := fetchSnapshot(t, ts.URL)
	total := int64(clients * requestsPerClient)
	if snap.Builds.Started != int64(len(loadConfigs)) || snap.Builds.Completed != int64(len(loadConfigs)) {
		t.Errorf("builds = %+v, want exactly %d started and completed", snap.Builds, len(loadConfigs))
	}
	if snap.Builds.InFlight != 0 || snap.Builds.Canceled != 0 || snap.Builds.Failed != 0 {
		t.Errorf("builds = %+v, want none in flight/canceled/failed", snap.Builds)
	}
	if snap.Cache.Evictions != 0 {
		t.Errorf("evictions = %d, want 0 (cache sized to the config count)", snap.Cache.Evictions)
	}
	if snap.Cache.Hits+snap.Cache.Misses != total {
		t.Errorf("hits+misses = %d+%d, want %d (one registry lookup per request)",
			snap.Cache.Hits, snap.Cache.Misses, total)
	}
	if starts := snap.Cache.Misses - snap.Cache.DedupJoins; starts != int64(len(loadConfigs)) {
		t.Errorf("misses-joins = %d, want %d (each config starts one build)", starts, len(loadConfigs))
	}

	// Served answers must be byte-identical to the batch library path
	// for the same config: same study constructor, same analyses, same
	// encoding — the cache can never change an answer.
	for _, cfg := range loadConfigs[:1] {
		study, err := rainshine.NewStudy(cfg.opts...)
		if err != nil {
			t.Fatal(err)
		}
		q1, err := study.SpareProvisioning(rainshine.W6, false)
		if err != nil {
			t.Fatal(err)
		}
		q2, err := study.VendorComparison()
		if err != nil {
			t.Fatal(err)
		}
		q3, err := study.ClimateGuidance()
		if err != nil {
			t.Fatal(err)
		}
		for path, rep := range map[string]any{
			"/v1/q1?" + cfg.query + "&workload=W6": q1,
			"/v1/q2?" + cfg.query:                  q2,
			"/v1/q3?" + cfg.query:                  q3,
		} {
			want, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			got := fetchBody(t, ts.URL+path)
			if string(want) != strings.TrimSuffix(got, "\n") {
				t.Errorf("%s: served JSON differs from batch answer\nserved: %.200s\nbatch:  %.200s",
					path, got, want)
			}
		}
	}

	t.Logf("%d requests in %v (%.0f req/s), %d builds, %d cache hits",
		total, wall, float64(total)/wall.Seconds(), snap.Builds.Completed, snap.Cache.Hits)
	writeBenchSummary(t, total, clients, wall, snap)
}

func fetchSnapshot(t *testing.T, base string) Snapshot {
	t.Helper()
	var snap Snapshot
	if err := json.Unmarshal([]byte(fetchBody(t, base+"/metricz")), &snap); err != nil {
		t.Fatalf("decoding /metricz: %v", err)
	}
	return snap
}

func fetchBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// writeBenchSummary records the load test's throughput as the "load"
// section of the file in RAINSHINE_BENCH_OUT (the `make serve-load`
// target sets it); the chaos soak owns the sibling "soak" section.
func writeBenchSummary(t *testing.T, total int64, clients int, wall time.Duration, snap Snapshot) {
	summary := struct {
		Test              string                      `json:"test"`
		Clients           int                         `json:"clients"`
		Requests          int64                       `json:"requests"`
		DistinctConfigs   int                         `json:"distinct_configs"`
		StudyBuilds       int64                       `json:"study_builds"`
		WallSeconds       float64                     `json:"wall_seconds"`
		RequestsPerSecond float64                     `json:"requests_per_second"`
		Cache             CacheCounters               `json:"cache"`
		Endpoints         map[string]EndpointSnapshot `json:"endpoints"`
	}{
		Test:              "TestServeLoad",
		Clients:           clients,
		Requests:          total,
		DistinctConfigs:   len(loadConfigs),
		StudyBuilds:       snap.Builds.Completed,
		WallSeconds:       wall.Seconds(),
		RequestsPerSecond: float64(total) / wall.Seconds(),
		Cache:             snap.Cache,
		Endpoints:         snap.Requests,
	}
	writeBenchSection(t, "load", summary)
}
