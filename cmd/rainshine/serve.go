package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rainshine"
	"rainshine/internal/faults"
	"rainshine/internal/server"
)

// serveConfig is the parsed form of the serve subcommand's flags.
type serveConfig struct {
	addr    string
	cache   int
	timeout time.Duration
	workers int
	warmup  bool

	buildTimeout     time.Duration
	maxConcurrent    int
	maxQueue         int
	q3Concurrent     int
	q3Queue          int
	rps              float64
	burst            int
	breakerThreshold int
	breakerCooldown  time.Duration
	chaos            bool
	chaosSeed        uint64

	follow         string
	followSeed     uint64
	followDays     int
	followRacks    string
	followFaults   bool
	followLateness int

	cpuprofile string
	memprofile string
}

// parseServeFlags parses and validates the serve flags without binding
// a port, so tests can exercise it directly.
func parseServeFlags(args []string) (serveConfig, error) {
	fs := flag.NewFlagSet("rainshine serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	cache := fs.Int("cache", 4, "max studies held in the registry LRU")
	fs.IntVar(cache, "cache-size", 4, "alias for -cache")
	timeout := fs.Duration("timeout", 5*time.Minute,
		"per-request deadline, including any study build the request triggers")
	workers := fs.Int("workers", 0,
		"worker goroutines per study build and analysis (0 = all CPUs, 1 = serial; results identical)")
	warmup := fs.Bool("warmup", false,
		"pre-materialize every table and figure (and the q3 answer they share) of each study before publishing it")
	buildTimeout := fs.Duration("build-timeout", 10*time.Minute,
		"hard cap on each detached study build, independent of request deadlines")
	maxConcurrent := fs.Int("max-concurrent", 256,
		"concurrently served /v1 requests outside q3")
	maxQueue := fs.Int("max-queue", 512,
		"extra requests allowed to wait for a slot before shedding 429 (0 = shed immediately)")
	q3Concurrent := fs.Int("q3-concurrent", 32,
		"concurrently served /v1/q3 grid requests (the expensive class, shed first)")
	q3Queue := fs.Int("q3-queue", 64,
		"q3 wait-queue depth before shedding 429 (0 = shed immediately)")
	rps := fs.Float64("rps", 0,
		"global admitted requests/second across /v1 (0 = unlimited)")
	burst := fs.Int("burst", 0,
		"token-bucket depth for -rps (0 = 2x rps)")
	breakerThreshold := fs.Int("breaker-threshold", 5,
		"consecutive build failures that open the study-build circuit breaker (0 = disabled)")
	breakerCooldown := fs.Duration("breaker-cooldown", 30*time.Second,
		"how long an open breaker sheds builds before probing")
	chaos := fs.Bool("chaos", false,
		"deterministic fault injection: seeded build failures, latency spikes, slow clients")
	chaosSeed := fs.Uint64("chaos-seed", 42, "seed for the -chaos fault plan")
	follow := fs.String("follow", "",
		"tail this append-only stream log: maintain a live watermark study and serve it on /v1/stream")
	followSeed := fs.Uint64("follow-seed", 42, "root seed of the followed stream's study")
	followDays := fs.Int("follow-days", 930, "observation window of the followed stream's study")
	followRacks := fs.String("follow-racks", "",
		"rack counts dc1,dc2 of the followed stream's study (default paper-scale 331,290)")
	followFaults := fs.Bool("follow-faults", false,
		"the followed stream carries the default dirty-data fault mix")
	followLateness := fs.Int("follow-lateness", 0,
		"out-of-order slack in days before the watermark closes a day (0 = 1 day, negative = none)")
	cpuprofile := fs.String("cpuprofile", "",
		"write a CPU profile covering the daemon's whole lifetime to this file")
	memprofile := fs.String("memprofile", "",
		"write a heap profile at shutdown to this file")
	if err := fs.Parse(args); err != nil {
		return serveConfig{}, err
	}
	if rest := fs.Args(); len(rest) > 0 {
		return serveConfig{}, fmt.Errorf("serve takes no positional arguments, got %q", rest)
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *addr == "" {
		return serveConfig{}, errors.New("-addr must not be empty")
	}
	if *cache < 1 {
		return serveConfig{}, fmt.Errorf("-cache must be at least 1, got %d", *cache)
	}
	if *timeout <= 0 {
		return serveConfig{}, fmt.Errorf("-timeout must be positive, got %s", *timeout)
	}
	if *workers < 0 {
		return serveConfig{}, fmt.Errorf("-workers must not be negative, got %d", *workers)
	}
	if *buildTimeout <= 0 {
		return serveConfig{}, fmt.Errorf("-build-timeout must be positive, got %s", *buildTimeout)
	}
	if *maxConcurrent < 1 {
		return serveConfig{}, fmt.Errorf("-max-concurrent must be at least 1, got %d", *maxConcurrent)
	}
	if *q3Concurrent < 1 {
		return serveConfig{}, fmt.Errorf("-q3-concurrent must be at least 1, got %d", *q3Concurrent)
	}
	if *maxQueue < 0 || *q3Queue < 0 {
		return serveConfig{}, fmt.Errorf("queue depths must not be negative, got -max-queue %d -q3-queue %d",
			*maxQueue, *q3Queue)
	}
	if *rps < 0 {
		return serveConfig{}, fmt.Errorf("-rps must not be negative, got %g", *rps)
	}
	if *burst < 0 {
		return serveConfig{}, fmt.Errorf("-burst must not be negative, got %d", *burst)
	}
	if *burst > 0 && *rps == 0 {
		return serveConfig{}, errors.New("-burst is meaningless without -rps")
	}
	if *breakerCooldown <= 0 {
		return serveConfig{}, fmt.Errorf("-breaker-cooldown must be positive, got %s", *breakerCooldown)
	}
	if set["chaos-seed"] && !*chaos {
		return serveConfig{}, errors.New("-chaos-seed requires -chaos")
	}
	if *follow == "" {
		for _, name := range []string{"follow-seed", "follow-days", "follow-racks", "follow-faults", "follow-lateness"} {
			if set[name] {
				return serveConfig{}, fmt.Errorf("-%s requires -follow", name)
			}
		}
	} else {
		if *followDays < 1 {
			return serveConfig{}, fmt.Errorf("-follow-days must be positive, got %d", *followDays)
		}
		if *followRacks != "" {
			if _, _, err := rainshine.ParseRacks(*followRacks); err != nil {
				return serveConfig{}, fmt.Errorf("-follow-racks: %s",
					strings.TrimPrefix(err.Error(), "rainshine: "))
			}
		}
	}
	return serveConfig{
		addr: *addr, cache: *cache, timeout: *timeout,
		workers: *workers, warmup: *warmup,
		buildTimeout:     *buildTimeout,
		maxConcurrent:    *maxConcurrent,
		maxQueue:         *maxQueue,
		q3Concurrent:     *q3Concurrent,
		q3Queue:          *q3Queue,
		rps:              *rps,
		burst:            *burst,
		breakerThreshold: *breakerThreshold,
		breakerCooldown:  *breakerCooldown,
		chaos:            *chaos,
		chaosSeed:        *chaosSeed,
		follow:           *follow,
		followSeed:       *followSeed,
		followDays:       *followDays,
		followRacks:      *followRacks,
		followFaults:     *followFaults,
		followLateness:   *followLateness,
		cpuprofile:       *cpuprofile,
		memprofile:       *memprofile,
	}, nil
}

// serverConfig translates the parsed flags to the daemon's config. The
// flag spelling "0" means "none at all" for queues and the breaker,
// which the server spells as a negative value (its zero value means
// "use the default").
func (cfg serveConfig) serverConfig() server.Config {
	rc := server.ResilienceConfig{
		MaxConcurrent:    cfg.maxConcurrent,
		MaxQueue:         cfg.maxQueue,
		Q3Concurrent:     cfg.q3Concurrent,
		Q3Queue:          cfg.q3Queue,
		RPS:              cfg.rps,
		Burst:            cfg.burst,
		BreakerThreshold: cfg.breakerThreshold,
		BreakerCooldown:  cfg.breakerCooldown,
		BuildTimeout:     cfg.buildTimeout,
	}
	if cfg.maxQueue == 0 {
		rc.MaxQueue = -1
	}
	if cfg.q3Queue == 0 {
		rc.Q3Queue = -1
	}
	if cfg.breakerThreshold <= 0 {
		rc.BreakerThreshold = -1
	}
	sc := server.Config{
		CacheSize:  cfg.cache,
		Timeout:    cfg.timeout,
		Workers:    cfg.workers,
		Warmup:     cfg.warmup,
		Resilience: rc,
	}
	if cfg.chaos {
		cc := faults.DefaultChaos(cfg.chaosSeed)
		sc.Chaos = &cc
	}
	if cfg.follow != "" {
		study := server.StudyConfig{
			Seed:   cfg.followSeed,
			Days:   cfg.followDays,
			Faults: cfg.followFaults,
		}
		if cfg.followRacks != "" {
			// Validated by parseServeFlags; an error here is impossible.
			a, b, _ := rainshine.ParseRacks(cfg.followRacks)
			study.Racks = [2]int{a, b}
		}
		sc.Follow = &server.FollowConfig{
			Path:     cfg.follow,
			Study:    study,
			Lateness: cfg.followLateness,
		}
	}
	return sc
}

// serveCmd runs the analysis daemon until SIGINT/SIGTERM, then drains
// in-flight requests and exits cleanly.
func serveCmd(args []string) (err error) {
	cfg, err := parseServeFlags(args)
	if err != nil {
		return err
	}
	stopProfiles, err := startProfiles(cfg.cpuprofile, cfg.memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil && err == nil {
			err = perr
		}
	}()
	srv := server.New(cfg.serverConfig())
	hs := &http.Server{
		Addr:              cfg.addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "rainshine serve: listening on %s (cache %d studies, timeout %s)\n",
		cfg.addr, cfg.cache, cfg.timeout)
	if cfg.follow != "" {
		fmt.Fprintf(os.Stderr, "rainshine serve: following stream log %s (seed %d, %d days)\n",
			cfg.follow, cfg.followSeed, cfg.followDays)
		go func() {
			// A corrupt or unreadable log degrades /v1/stream (its state
			// carries the error); the batch endpoints keep serving.
			if err := srv.Follow(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "rainshine serve: stream follower: %v\n", err)
			}
		}()
	}
	if cfg.chaos {
		fmt.Fprintf(os.Stderr, "rainshine serve: CHAOS MODE ON (seed %d): injecting deterministic build failures, latency spikes, slow clients\n",
			cfg.chaosSeed)
	}

	select {
	case err := <-errc:
		// ListenAndServe only returns early on its own for setup
		// failures (port in use, bad address).
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C force-quits
	fmt.Fprintln(os.Stderr, "rainshine serve: draining in-flight requests...")
	sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	snap := srv.Metrics().Snapshot(cfg.cache)
	fmt.Fprintf(os.Stderr, "rainshine serve: done (%d builds, %d cache hits, %d misses, %d shed, %d degraded)\n",
		snap.Builds.Completed, snap.Cache.Hits, snap.Cache.Misses,
		snap.Resilience.ShedTotal(), snap.Resilience.DegradedServed)
	return nil
}
