// Command relmaxd serves reliability-maximization and reliability-
// estimation queries over HTTP/JSON: a Catalog of datasets, each served by
// a long-lived Engine (versioned CSR snapshots + warm sampler pool +
// epoch-aware result cache), every query a job on a bounded worker queue
// (load shedding with 503 when full), per-request timeouts, cooperative
// cancellation, and graceful shutdown. Datasets named on the command line
// seed the catalog; more are created, mutated and closed at runtime via
// the /v2/datasets endpoints.
//
// With -data-dir the catalog is durable: every dataset keeps a write-ahead
// log plus snapshot checkpoints under <data-dir>/<name>, each mutation
// batch is fsynced before the new epoch is acknowledged, and on boot every
// stored dataset is recovered to its exact committed epoch (corrupt ones
// are logged and skipped, never fatal). Command-line seeding skips names
// that were restored, so a restart with the same flags serves the mutated
// state, not a re-seeded copy; DELETE /v2/datasets/{name} also removes the
// dataset's durable state.
//
// With -role the same binary forms a replication group. A primary (the
// default role) with -data-dir additionally serves each dataset's
// committed batches as a streaming feed. A replica (-role replica -follow
// <primary>) starts empty, discovers the primary's datasets, bootstraps
// each from a shipped checkpoint and applies the batch stream through the
// same machinery crash recovery uses — serving reads at its own epoch,
// bit-identically to the primary's same-epoch snapshot, with writes
// rejected (403). Replicas take no -data-dir: their state is a cache of
// the primary's log, rebuilt over the feed on restart or gap. A router
// (-role router -follow <primary> -replicas <urls>) serves the same API
// with no catalog of its own: reads round-robin across replicas, writes
// and dataset lifecycle go to the primary, job IDs gain a backend prefix
// so status polls route back to the backend that ran them, and /metrics
// reports per-replica epoch lag. Every query-serving node must run
// identical engine flags (-sampler, -z, -seed, -workers) — replicas
// stream the primary's data, not its configuration.
//
//	relmaxd -addr :8080 -dataset lastfm -scale 0.05 -workers -1
//	relmaxd -addr :8080 -datasets lastfm,astopo -z 1000 -cache 512
//	relmaxd -addr :8080 -graph g.txt -max-concurrent 8 -queue-depth 128
//	relmaxd -addr :8080 -dataset lastfm -data-dir /var/lib/relmaxd
//	relmaxd -addr :8081 -role replica -follow http://primary:8080 -z 1000 -seed 1
//	relmaxd -addr :8082 -role router -follow http://primary:8080 -replicas http://r1:8081,http://r2:8083
//
// Endpoints:
//
//	GET    /healthz              — liveness + served datasets, graph sizes and epochs
//	POST   /v1/solve             — one Problem 1 query, synchronous   {"s":0,"t":5,"method":"be","k":2}
//	POST   /v1/estimate          — batched reliability, synchronous   {"pairs":[[0,5],[1,7]]}
//	POST   /v2/jobs              — submit any query kind as an async job
//	                               {"kind":"solve|multi|total-budget|estimate|estimate-many", ...}
//	GET    /v2/jobs/{id}         — job status, progress and (when done) result
//	DELETE /v2/jobs/{id}         — cancel a queued or running job
//	GET    /v2/jobs/{id}/events  — NDJSON stream of solver progress events
//	GET    /v2/datasets          — list datasets with epoch + graph size
//	POST   /v2/datasets          — create a dataset at runtime
//	                               {"name":"x","dataset":"lastfm"} | {"name":"x","path":"g.txt"} | {"name":"x","edge_list":"..."}
//	DELETE /v2/datasets/{name}   — close a dataset (evict its terminal jobs, cancel live ones)
//	POST   /v2/datasets/{name}/mutations
//	                             — atomically mutate the graph, returns the new epoch
//	                               {"mutations":[{"op":"add-edge","u":0,"v":5,"p":0.4},
//	                                             {"op":"set-prob","u":1,"v":2,"p":0.9},
//	                                             {"op":"remove-edge","u":3,"v":4}]}
//	GET    /v2/replication/feed/{name}
//	                             — streaming feed of a dataset's committed batches
//	                               (snapshot + tail + heartbeats; ?from= resumes)
//	GET    /metrics              — qps, latency quantiles, queue depth, cache hits,
//	                               plus a per-dataset breakdown (epoch, qps, jobs, cache,
//	                               mutations and checkpoints)
//	                               and the node's replication state (feeds or follower
//	                               lag); ?format=prometheus (or an Accept header
//	                               preferring text/plain) switches to Prometheus
//	                               text exposition
//
// Every query response — /v1 payloads, job status and every job result
// kind — carries the serving epoch, both as an "epoch" field and an
// X-Repro-Epoch header, so callers can correlate answers across a
// replication group.
//
// The /v1 endpoints are synchronous shims over the same job runner, so
// both surfaces share one concurrency bound and one result cache. In-
// flight jobs pin the graph epoch current at submit time: a mutation never
// perturbs them, and re-running the same query afterwards is a fresh
// fingerprint (observable as a cache miss). Responses are deterministic
// for a fixed dataset, epoch and seed (identical requests return identical
// payloads, modulo the "timing" block), which is what makes the CI smoke
// test possible — see scripts/relmaxd_smoke.sh and examples/server for a
// walkthrough.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		graph    = flag.String("graph", "", "serve one edge-list graph file")
		datasets = flag.String("datasets", "", "comma-separated built-in dataset names to serve (alias: -dataset)")
		dataset  = flag.String("dataset", "", "single built-in dataset name")
		scale    = flag.Float64("scale", 0.08, "dataset scale factor")
		z        = flag.Int("z", 500, "default reliability samples per estimate")
		sampler  = flag.String("sampler", "rss", "default estimator: mc, rss or mcvec (word-parallel MC)")
		seed     = flag.Int64("seed", 1, "base seed (fixes every response payload)")
		workers  = flag.Int("workers", -1, "sampling worker pool size per engine (<= 0 = all CPUs; results are identical at every value)")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-request / per-job timeout (0 = none)")
		grace    = flag.Duration("grace", 10*time.Second, "shutdown grace period for in-flight requests")

		role         = flag.String("role", "primary", "serving role: primary, replica (read-only follower of -follow) or router")
		follow       = flag.String("follow", "", "primary base URL, e.g. http://127.0.0.1:8080 (required for -role replica and router)")
		replicasCSV  = flag.String("replicas", "", "comma-separated replica base URLs the router spreads reads across")
		syncInterval = flag.Duration("sync-interval", 2*time.Second, "replica: how often to reconcile the dataset set against the primary")
		maxLag       = flag.Uint64("max-lag", 0, "router: skip read replicas lagging more than this many epochs behind the primary (0 = no lag limit)")

		dataDir     = flag.String("data-dir", "", "durable storage root: per-dataset WAL + checkpoints, datasets recovered on boot")
		ckptBatches = flag.Int("checkpoint-batches", 0, "checkpoint after this many mutation batches (0 = default 64; needs -data-dir)")
		ckptBytes   = flag.Int64("checkpoint-bytes", 0, "checkpoint after this much WAL growth in bytes (0 = default 4MiB; needs -data-dir)")

		cache         = flag.Int("cache", 256, "result-cache entries per engine (0 disables caching)")
		cacheWarm     = flag.Int("cache-warm", 0, "re-warm this many popular cached fingerprints after each mutation epoch (0 disables; needs -cache)")
		maxConcurrent = flag.Int("max-concurrent", 0, "max concurrently running jobs per engine (0 = all CPUs)")
		queueDepth    = flag.Int("queue-depth", 64, "max jobs waiting per engine beyond the running ones; excess gets 503 (0 = no queueing)")

		maxZ         = flag.Int("max-z", defaultLimits().MaxZ, "per-request ceiling on samples z")
		maxK         = flag.Int("max-k", defaultLimits().MaxK, "per-request ceiling on the edge budget k")
		maxRL        = flag.Int("max-rl", defaultLimits().MaxRL, "per-request ceiling on elimination width r and path count l")
		maxPairs     = flag.Int("max-pairs", defaultLimits().MaxPairs, "per-request ceiling on estimate batch size")
		maxMutations = flag.Int("max-mutations", defaultLimits().MaxMutations, "per-request ceiling on mutation batch size")
		maxDatasets  = flag.Int("max-datasets", defaultLimits().MaxDatasets, "ceiling on concurrently served datasets")
		maxBody      = flag.Int64("max-body", defaultLimits().MaxBodyBytes, "request body cap in bytes")

		shedPrecision = flag.Float64("shed-precision", 0,
			"under load, widen precision-mode estimates to this half-width before shedding requests (0 disables)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The router holds no catalog at all: build it and serve.
	if *role == roleRouter {
		if *follow == "" {
			log.Fatalf("relmaxd: -role router requires -follow <primary URL>")
		}
		var replicaURLs []string
		for _, u := range strings.Split(*replicasCSV, ",") {
			if u = strings.TrimSpace(u); u != "" {
				replicaURLs = append(replicaURLs, u)
			}
		}
		rt := newRouter(*follow, replicaURLs, *maxLag)
		if len(replicaURLs) > 0 {
			// Health-aware balancing: keep the eligible read set fresh so
			// pickRead skips dead or lagging replicas between scrapes.
			go rt.healthLoop(ctx, *syncInterval)
		}
		log.Printf("relmaxd: routing reads across %d replica(s), writes to %s, on %s (max-lag=%d)",
			len(replicaURLs), *follow, *addr, *maxLag)
		serve(ctx, *addr, rt.handler(), *grace)
		return
	}

	cfg := engineConfig{
		scale: *scale, z: *z, sampler: *sampler, seed: *seed, workers: *workers,
		cache: *cache, cacheWarm: *cacheWarm, maxConcurrent: *maxConcurrent, queueDepth: *queueDepth,
		dataDir: *dataDir, ckptBatches: *ckptBatches, ckptBytes: *ckptBytes,
	}

	var catalog *repro.Catalog
	var taps *tapRegistry
	var err error
	switch *role {
	case rolePrimary:
		// A durable primary taps every dataset store for replication; the
		// wrapper must be installed before buildCatalog restores anything,
		// or restored datasets would serve without feeds.
		if cfg.dataDir != "" {
			taps = newTapRegistry()
		}
		catalog, err = buildCatalog(*graph, *datasets, *dataset, cfg, taps)
	case roleReplica:
		if *follow == "" {
			log.Fatalf("relmaxd: -role replica requires -follow <primary URL>")
		}
		if cfg.dataDir != "" {
			// Durability is the primary's job; a replica's local WAL would
			// diverge from the primary's the moment it re-bootstrapped.
			log.Fatalf("relmaxd: -data-dir is not supported with -role replica (replicas re-bootstrap from the feed)")
		}
		// The replica's catalog starts empty — the follower set populates it
		// from the primary's feed — but inherits the same engine defaults,
		// which MUST match the primary's flags for bit-identical answers.
		catalog = newCatalogWithDefaults(cfg)
	default:
		log.Fatalf("relmaxd: unknown -role %q (primary, replica or router)", *role)
	}
	if err != nil {
		log.Fatalf("relmaxd: %v", err)
	}
	srv := newServer(catalog, *timeout)
	srv.role = *role
	srv.taps = taps
	if *role == roleReplica {
		srv.replicas = newReplicaManager(srv, *follow, *syncInterval)
		go srv.replicas.run(ctx)
		log.Printf("relmaxd: replica following %s (sync every %v)", *follow, *syncInterval)
	}
	srv.defaultScale, srv.defaultSeed = *scale, *seed
	srv.shedPrec = *shedPrecision
	catalog.SetMaxDatasets(*maxDatasets)
	srv.limits = limits{
		MaxZ: *maxZ, MaxK: *maxK, MaxRL: *maxRL,
		MaxPairs: *maxPairs, MaxMutations: *maxMutations, MaxDatasets: *maxDatasets,
		MaxBodyBytes: *maxBody,
	}
	log.Printf("relmaxd: serving %v on %s as %s (workers=%d, z=%d, sampler=%s, timeout=%v, cache=%d, max-concurrent=%d, queue-depth=%d)",
		srv.names(), *addr, *role, *workers, *z, *sampler, *timeout, *cache, *maxConcurrent, *queueDepth)
	serve(ctx, *addr, srv.handler(), *grace)
}

// serve runs one HTTP server until ctx fires, then shuts down gracefully:
// stop accepting, let in-flight requests finish within the grace period
// (their contexts also fire when the client goes away), then exit cleanly.
func serve(ctx context.Context, addr string, handler http.Handler, grace time.Duration) {
	// Read timeouts bound the request *transport* (slow-loris headers and
	// bodies), complementing the per-request solve timeout which only
	// starts once the body is decoded. The write timeout stays unset: the
	// /v2 events endpoint and the replication feed stream indefinitely.
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errCh:
		log.Fatalf("relmaxd: %v", err)
	case <-ctx.Done():
		log.Printf("relmaxd: shutting down (grace %v)", grace)
		shutCtx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			log.Printf("relmaxd: shutdown: %v", err)
			os.Exit(1)
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("relmaxd: %v", err)
			os.Exit(1)
		}
		log.Printf("relmaxd: bye")
	}
}

// engineConfig carries the per-engine construction parameters.
type engineConfig struct {
	scale         float64
	z             int
	sampler       string
	seed          int64
	workers       int
	cache         int
	cacheWarm     int
	maxConcurrent int
	queueDepth    int
	dataDir       string
	ckptBatches   int
	ckptBytes     int64
}

// buildCatalog seeds a Catalog with the datasets named on the command
// line; its defaults then govern every dataset created at runtime too.
// With a data directory configured, datasets stored there are recovered
// FIRST and win over same-named command-line seeds — a restart must serve
// the committed, mutated state, not a fresh re-seed of it.
func buildCatalog(graphPath, datasetsCSV, dataset string, cfg engineConfig, taps *tapRegistry) (*repro.Catalog, error) {
	catalog := newCatalogWithDefaults(cfg)
	restored := make(map[string]bool)
	if cfg.dataDir != "" {
		if err := catalog.SetStorage(cfg.dataDir); err != nil {
			return nil, err
		}
		if taps != nil {
			// Interpose a replication tap on every dataset store the catalog
			// opens from here on — restores below included.
			catalog.SetStoreWrapper(taps.wrap)
		}
		names, err := catalog.StoredNames()
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			eng, err := catalog.Restore(name)
			if err != nil {
				// A dataset that cannot be recovered must not take the
				// server (and every healthy dataset) down with it; its
				// bytes are left in place for offline inspection.
				log.Printf("relmaxd: dataset %q: recovery failed, skipping: %v", name, err)
				continue
			}
			restored[name] = true
			c := eng.Snapshot()
			log.Printf("relmaxd: dataset %q restored (n=%d m=%d epoch=%d)", name, c.N(), c.M(), c.Epoch())
		}
	}
	switch {
	case graphPath != "":
		if !restored["graph"] {
			if _, err := catalog.Load("graph", graphPath); err != nil {
				return nil, err
			}
		}
	case datasetsCSV != "" || dataset != "":
		names := strings.Split(datasetsCSV, ",")
		if datasetsCSV == "" {
			names = []string{dataset}
		}
		for _, name := range names {
			name = strings.TrimSpace(name)
			if name == "" || restored[name] {
				continue
			}
			g, err := repro.LoadDataset(name, cfg.scale, cfg.seed)
			if err != nil {
				return nil, err
			}
			if _, err := catalog.Create(name, g); err != nil {
				return nil, fmt.Errorf("dataset %s: %w", name, err)
			}
		}
	default:
		// With a data directory the server may legitimately boot empty and
		// be populated via POST /v2/datasets.
		if cfg.dataDir == "" {
			return nil, fmt.Errorf("one of -graph, -dataset, -datasets or -data-dir is required (datasets: %s)",
				strings.Join(repro.DatasetNames(), ", "))
		}
	}
	if catalog.Len() == 0 && cfg.dataDir == "" {
		return nil, fmt.Errorf("no datasets to serve")
	}
	return catalog, nil
}

// newCatalogWithDefaults builds a catalog whose engine defaults mirror the
// command-line flags — shared by every role that runs engines, so a replica
// started with the primary's flags produces bit-identical query payloads.
func newCatalogWithDefaults(cfg engineConfig) *repro.Catalog {
	return repro.NewCatalog(
		repro.WithSamplerKind(cfg.sampler),
		repro.WithSampleSize(cfg.z),
		repro.WithSeed(cfg.seed),
		repro.WithWorkers(cfg.workers),
		repro.WithResultCache(cfg.cache),
		repro.WithCacheWarming(cfg.cacheWarm),
		repro.WithMaxConcurrent(cfg.maxConcurrent),
		repro.WithQueueDepth(cfg.queueDepth),
		repro.WithCheckpointEvery(cfg.ckptBatches, cfg.ckptBytes),
	)
}
