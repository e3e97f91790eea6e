// Package repro is a Go implementation of "Reliability Maximization in
// Uncertain Graphs" (Ke, Khan, Al Hasan, Rezvansangsari; ICDE 2021 /
// arXiv:1903.08587): given an uncertain graph — where each edge carries an
// independent existence probability — and a source/target query, it finds
// the best k new edges (shortcut edges, each with probability ζ) to add so
// that the s-t reliability is maximized.
//
// The problem is NP-hard, admits no PTAS, and its objective is neither
// submodular nor supermodular, so the library implements the paper's
// practical pipeline:
//
//  1. reliability-based search space elimination (top-r nodes most
//     reliable from s and to t, optional h-hop constraint on new edges),
//     which keeps the candidate edges E+ as a pair set — the two node
//     sets, a bit per eligible pair and ζ — instead of a list,
//  2. top-l most reliable path extraction over the candidate-augmented
//     graph G+ = G ∪ E+. After elimination G+ is never materialised: the
//     path search walks packed rows of G's arcs and reads the candidate
//     arcs straight from the pair set (all carry the one weight −log ζ),
//     with the paths and edge IDs a search over G+ would give. The paths
//     come in one order, probability cut to 20 significant bits, then the
//     order the enumeration meets them in (branching off earlier paths
//     nearest s first), which also decides which equally reliable paths
//     make the cut at l. G+ is built as a graph only when a query lists
//     its own candidates (explicit Candidates, or NoElimination), and
//  3. greedy path-batch selection (BE) under the budget k — with
//     individual-path selection (IP), the exact polynomial solver for the
//     restricted most-reliable-path problem (MRP), the §3 baselines
//     (individual top-k, hill climbing, centrality, eigenvalue), and
//     exhaustive search for small instances as alternatives.
//
// Step 3 scores each path or path batch by the s-t reliability of the
// subgraph its selection induces (Problem 3's objective). The paper
// estimates it by sampling; here it is computed exactly by the factoring
// theorem, because those subgraphs hold a handful of edges. Only a
// selection too large to factor (more than 20 distinct edges, or past a
// branch budget) is sampled; otherwise BE and IP selection draw no
// randomness and depend only on the candidates and paths.
//
// A solve reports the s-t reliability before (Base) and after (After)
// adding its edges. Step 1 already estimates Base twice, as the
// reliability of t from s and of s to t, so Base is the mean of those two
// estimates: unbiased and independent of the chosen edges, though its
// noise is the noise the candidate ranking saw. After is sampled on a
// held-out stream the selection never touches. Explicit candidate lists
// and Options.NoElimination skip step 1, so there Base is sampled on that
// held-out stream too.
//
// # Quick start: the Engine
//
// Engine is the primary entry point: built once per dataset, it pins an
// immutable CSR snapshot of the graph and serves concurrent, cancellable
// queries, sampling on per-kind warm sampler pools shared by the whole
// process:
//
//	g := repro.NewGraph(4, false)
//	g.MustAddEdge(2, 1, 0.9)
//	g.MustAddEdge(2, 3, 0.3)
//	eng, err := repro.NewEngine(g,
//		repro.WithSeed(7),
//		repro.WithWorkers(-1), // parallel sampling on all CPUs
//	)
//	if err != nil { ... }
//
//	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
//	defer cancel()
//	sol, err := eng.Solve(ctx, repro.Request{S: 0, T: 3, Method: repro.MethodBE,
//		Options: &repro.Options{K: 2, Zeta: 0.5}})
//	// sol.Edges are the shortcut edges; sol.Gain the reliability gain.
//
//	rel, err := eng.Estimate(ctx, 0, 3)                   // one reliability
//	rels, err := eng.EstimateMany(ctx, []repro.PairQuery{ // a batch
//		{S: 0, T: 3}, {S: 1, T: 3}})
//
// Cancellation is cooperative and cheap: the samplers poll ctx between
// sample blocks (never per edge), so a cancelled or deadline-expired query
// returns within one block with an error wrapping context.Canceled or
// context.DeadlineExceeded — and, where meaningful, the partial result
// built so far (Solution.Edges holds the edges committed before the
// context fired). Uncancelled queries consume exactly the randomness the
// legacy entry points consume: results are bit-identical at the same
// Options, at any worker count.
//
// Errors form a typed taxonomy (ErrBadQuery, ErrUnknownMethod,
// ErrUnknownSampler, ErrBudget, ErrNoPath, ErrOverloaded): every solver
// error wraps exactly one sentinel, so callers route with errors.Is.
// Request.Progress receives per-round solver progress (candidates
// eliminated, paths extracted, batches evaluated) for logs and dashboards.
//
// An Engine is safe for concurrent use and stateless per request:
// identical requests return identical answers regardless of what else is
// in flight — the property the HTTP server in cmd/relmaxd builds on (see
// examples/server for a curl walkthrough).
//
// Multiple-source/target queries (Problem 4) are served by
// Engine.SolveMulti under Average, Minimum and Maximum aggregates, and the
// §9 total-probability-budget extension by Engine.SolveTotalBudget.
//
// Solves on one epoch share candidate elimination's reliability vectors.
// The From(s) and To(t) vectors of step 1 depend on the epoch, Seed, Z
// and their own endpoint only, so each snapshot memoises them, keyed by
// (Seed, Z, direction, node), for Solve and SolveTotalBudget: a stream of
// solves that shares sources or targets samples each vector once per
// epoch. A memoised vector is the one the solve would have sampled, so the
// memo never changes a result; a new epoch, or its compacted twin, starts
// with none. Engine.Stats counts the hits and misses.
//
// # Queries, jobs and the result cache
//
// Underneath the five typed methods sits one unified query surface: a
// Query names a kind (solve, multi, total-budget, estimate,
// estimate-many) plus its parameters, and Engine.Run dispatches it. Every
// Query canonicalizes (Engine.Canonicalize) to a deterministic fingerprint
// (Query.Key) under which results are cacheable: with WithResultCache(n),
// a repeated identical query returns the cached, bit-identical Result
// without recomputing — repeated (s, t) eliminations, dashboard refreshes,
// retried requests.
//
// Long-running queries are served asynchronously as jobs:
//
//	job, err := eng.Submit(ctx, repro.Query{Kind: repro.QuerySolve, S: 0, T: 3})
//	// err wraps ErrOverloaded when the bounded queue is full (load shedding)
//	st := job.Status()   // queued/running/done/cancelled/failed + per-round progress
//	<-job.Done()
//	res, err := job.Result()
//	job.Cancel()         // cooperative: lands within one sample block
//
// Jobs run on a bounded worker queue (WithMaxConcurrent, WithQueueDepth),
// are detached from the submitting context (an HTTP handler can return
// while the job runs), record their solver progress events for streaming
// (Job.Events), and report cache hits in their status. Engine.Stats
// exposes the serving counters (queue gauges, job outcomes, cache
// hit/miss, anytime samples, mutation and checkpoint counts, the current
// epoch) that back cmd/relmaxd's /metrics endpoint. Each /metrics series is
// declared once, as a field of a typed payload whose struct tags name both
// its JSON key and its Prometheus family, so the JSON document and the
// Prometheus exposition (?format=prometheus) always carry the same values.
//
// # Anytime queries
//
// Fixed sample budgets waste work in both directions: an easy query is
// obvious after a few hundred samples, a hard one is still noisy after the
// full budget with nothing to say about how noisy. Setting
// Options.Precision switches an estimate (or estimate-many) into anytime
// mode: sampling proceeds in 64-aligned blocks, a running confidence
// interval (Wilson score and Hoeffding bound, whichever is tighter at 95%
// confidence) narrows as blocks land, and the query stops at the first of
// three events — the interval's half-width reaches Precision, the adaptive
// budget cap Options.MaxZ is exhausted, or the context deadline fires.
// The Result carries the interval alongside the point:
//
//	res, err := eng.Run(ctx, repro.Query{Kind: repro.QueryEstimate, S: 0, T: 3,
//		Options: &repro.Options{Precision: 0.01}})
//	a := res.Anytime // Point, [Lo, Hi], SamplesUsed, StopReason
//
// StopReason is one of StopPrecision, StopBudget, StopDeadline — a
// deadline expiry is an answer with honest error bars, not an error.
// Progress callbacks (and job status/events) stream the narrowing
// interval as StageEstimate events, and Stats counts the samples adaptive
// stopping saved against the fixed budget (AnytimeEstimates,
// AnytimeSamplesUsed, AnytimeSamplesSaved).
//
// The determinism contract extends to anytime runs: for a fixed seed the
// block schedule and stop decision are deterministic, and the sampled
// stream is bit-identical to a fixed-budget run truncated at the same
// length — at any worker count, for every sampler kind.
//
// Anytime results compose with the result cache under upgrade semantics:
// Precision is deliberately excluded from the canonical fingerprint, so
// all precisions of one (s, t) estimate share a cache slot holding the
// tightest interval computed so far. A cached tight interval serves any
// looser request bit-identically; a tighter request recomputes and
// upgrades the slot; fixed-budget estimates keep their own keys. This is
// also the load-shedding primitive cmd/relmaxd's -shed-precision flag
// builds on: under queue pressure the server widens served precision
// (labelled in the response) before it starts refusing requests.
//
// # Datasets and mutation
//
// A deployed server does not freeze its graphs forever: edges arrive,
// probabilities get re-estimated, datasets get loaded and retired while
// queries are in flight. Two types carry that lifecycle.
//
// A Catalog is a registry of named datasets, each served by its own
// Engine, managed at runtime:
//
//	cat := repro.NewCatalog(repro.WithResultCache(256), repro.WithWorkers(-1))
//	eng, err := cat.Create("social", g)     // register a graph
//	eng, err = cat.Load("roads", "g.txt")   // or an edge-list file
//	eng, err = cat.Open("social")           // resolve for serving
//	infos := cat.List()                     // names, epochs, graph sizes
//	err = cat.Close("roads")                // retire: cancels its jobs
//
// An Engine's graph is mutable behind versioned snapshots. Apply commits
// an atomic batch of mutations — AddEdge, SetProb, RemoveEdge — by
// building the next epoch aside and rotating it in with one pointer swap:
//
//	epoch, err := eng.Apply(ctx,
//		repro.AddEdge(3, 42, 0.5),
//		repro.SetProb(7, 9, 0.25),
//		repro.RemoveEdge(1, 4))
//
// The next epoch is a delta overlay, not a rebuild: it shares the previous
// snapshot's flat CSR arrays and materializes only the adjacency rows the
// batch touched, in exactly the arc order a full rebuild would produce, so
// every query on the layered snapshot is bit-identical to one on a
// rebuilt-from-scratch graph at the same epoch. Honest cost accounting:
// a commit is O(batch size · touched-row degree) — independent of graph
// size — but it is not free forever. Each commit stacks one overlay layer,
// and a background compactor folds the chain back into a flat CSR when it
// exceeds a bounded depth or the materialized rows exceed a fraction of
// the graph (WithCompactionPolicy; Engine.Compact forces it; Stats reports
// DeltaCommits, Compactions and ChainDepth). The fold costs one O(N+M)
// rebuild, so the rebuild you avoided per commit is really amortized
// across the chain — roughly rebuild/depth per commit — and a batch that
// touches a large fraction of the graph approaches the rebuild cost
// outright. Every commit takes this path — Apply, ApplyReplicated and WAL
// replay alike; a clone+rebuild commit survives only in the tests, as the
// differential oracle and the BenchmarkApply baseline.
//
// An epoch is its CSR. Estimates walk the layered snapshot directly and
// never build a mutable Graph; a solve (and compaction or a checkpoint)
// on a layered epoch rebuilds the Graph once per snapshot from the CSR's
// canonical edge order — the same order a checkpoint writes and recovery
// replays — so it freezes to exactly the layered epoch's rows,
// probabilities and version.
//
// Readers never lock against writers: every query pins the snapshot
// current at canonicalization (jobs pin at Submit), so work in flight
// across an Apply completes on the graph it started on, bit-identical to
// a never-mutated engine; compaction republishes the same epoch in flat
// form and disturbs nothing. The graph epoch is part of every canonical
// fingerprint (Query.Key), which makes cache invalidation free of
// correctness risk: the same query after a mutation is a new fingerprint,
// so it can only miss; stale-epoch entries become unreachable and are
// evicted lazily (Stats reports the reclaimed count). WithCacheWarming
// softens the post-mutation miss storm: after each rotation the engine
// re-submits up to N of the outgoing epoch's most-recently-used cached
// fingerprints at normal queue priority — bounded, single-flight, shed
// outright when the queue is full — and Stats counts the entries it
// recomputed (CacheWarmed). A batch is all-or-nothing — the first invalid
// mutation (ErrBadMutation) aborts it with the epoch unchanged.
//
// cmd/relmaxd exposes the whole lifecycle over HTTP: POST/GET/DELETE
// /v2/datasets to create (from a built-in stand-in, a server-local file
// or an uploaded edge list), list and close datasets, and
// POST /v2/datasets/{name}/mutations to mutate — see examples/server.
//
// # Durability
//
// An engine is in-memory by default; WithStorage makes it durable on
// plain append-only files:
//
//	eng, err := repro.NewEngine(g, repro.WithStorage("/data/social")) // initialize
//	epoch, err := eng.Apply(ctx, repro.AddEdge(3, 42, 0.5))          // fsynced before return
//	eng.Close()
//	eng, err = repro.OpenEngine("/data/social")                      // recover, exact epoch
//
// Every Apply appends the committed batch — its post-batch epoch plus the
// encoded mutations, CRC32C-framed — to a write-ahead log and fsyncs it
// BEFORE the new snapshot rotates in: an acknowledged epoch survives any
// crash. A checkpoint policy (WithCheckpointEvery, default every 64
// batches or 4 MiB of WAL; Engine.Checkpoint forces one) serializes the
// current epoch's edge set to a snapshot file — written to a temp file,
// fsynced, atomically renamed — and truncates the WAL, bounding recovery
// time. A checkpoint of a delta-layered epoch folds the chain first, so
// the file always describes the flat form and recovery is byte-identical
// whether the epoch was committed layered or flat. Recovery loads the
// newest valid checkpoint, checks that every WAL batch chains onto the
// epoch before it, and commits all of them as one delta layer over the
// checkpoint — the commit Apply makes, validated the same way — then
// starts the engine on that layer's canonical rebuild, the flat graph
// compaction would publish. It arrives at the exact committed epoch, its
// CSR is bit-identical, and every query kind answers exactly as the
// pre-crash engine did. A WAL batch that does not chain or cannot be
// replayed fails recovery with store.ErrCorrupt naming its epoch. A torn or corrupt WAL tail (a crash mid-append)
// is detected by CRC, truncated with a logged warning and never panics;
// unacknowledged tail batches are the only thing lost.
//
// Catalogs scale this to many datasets: SetStorage(root) persists every
// dataset under root/<name>, Restore recovers one by name, StoredNames
// lists what a previous process left behind, and DropStorage deletes a
// retired dataset's bytes. cmd/relmaxd wires these to -data-dir: stored
// datasets are recovered on boot (winning over same-named command-line
// seeds) and DELETE /v2/datasets/{name} drops the stored state. Stats
// reports Durable, Checkpoints and CheckpointErrors (relmaxd's /metrics
// shows the last two per dataset); a failed checkpoint never fails an
// Apply (the WAL already holds the batch) and is retried on the next one.
//
// # Replication
//
// The durability primitives double as a replication substrate: the
// store.Batch records a primary fsyncs to its WAL are exactly what a read
// replica needs to mirror it. Engine.ApplyReplicated commits one such
// batch through the commit Apply makes (the same delta overlay, background
// compaction and, on a durable engine, WAL append) — validated against the
// replica's current epoch (b.PrevEpoch() must match, else ErrReplicaGap)
// and counted in Stats as ReplicatedApplies/ReplicatedMutations distinct
// from local traffic. Because the batch commits the same
// operations in the same order, a replica at epoch E answers every query
// bit-identically to the primary's pinned-epoch-E snapshot.
//
// Bootstrap and gap repair ship a full checkpoint instead:
// GraphFromSnapshot rebuilds a graph from a store.Snapshot (edge-ID order
// reproduces the primary's CSR byte for byte), Catalog.CreateFromSnapshot
// registers it as a served dataset at the snapshot's exact epoch, and
// Engine.ResetToSnapshot adopts one wholesale on a live engine, purging
// the result cache (a re-bootstrap may move the epoch backwards); a
// durable engine refuses it (ErrBadMutation), since its store would no
// longer describe the graph.
// Replica datasets are deliberately never durable: a replica's state is a
// cache of the primary's log, rebuilt over the feed on restart, not a
// second source of truth.
//
// Catalog.SetStoreWrapper is the primary-side seam: a configured wrapper
// interposes on every durable store the catalog opens, which is how
// internal/replication taps AppendBatch (post-fsync, pre-rotation) to
// stream committed batches to subscribers. cmd/relmaxd wires the whole
// loop: -role primary serves a per-dataset feed (checkpoint ship + WAL
// tail + heartbeats over long-lived HTTP), -role replica follows a
// primary read-only and re-bootstraps on any gap, and -role router
// spreads reads across replicas while routing writes to the primary,
// surfacing per-replica epoch lag in /metrics.
//
// # Legacy compatibility
//
// The original free functions — Solve, SolveMulti, SolveTotalBudget,
// RunExperiment — remain as thin wrappers running under
// context.Background with a fresh sampler per call. They cannot be
// cancelled and rebuild per-call state, but return bit-identical results
// to an Engine configured with the same Options; existing callers keep
// working unchanged.
//
// # Sampling
//
// Reliability estimation uses the paper's two estimators, Monte Carlo
// sampling ("mc", §3.1) and recursive stratified sampling ("rss", §5.3),
// or word-parallel vector Monte Carlo ("mcvec"); the serial estimators are
// exposed via NewMonteCarloSampler, NewRSSSampler and NewMCVecSampler and
// are single-goroutine only. NewParallelSampler wraps any of them into a
// goroutine-safe estimator that shards the sample budget across workers
// deterministically and supports batched evaluation (EstimateMany,
// EstimateEdges). Every solve and Engine query samples through it;
// Options.Workers and WithWorkers only size its pool (<= 0 = all CPUs), so
// results are bit-identical at every Workers value for a fixed seed.
// Every sampler accepts a context via SetContext for block-granular
// cancellation.
//
// The vector sampler simulates 64 possible worlds per BFS traversal by
// packing edge existence into uint64 lane masks, drawing 64 Bernoulli
// trials per RNG interaction; on the single-source estimators this is an
// order-of-magnitude throughput win over scalar MC at the same budget.
// Its determinism contract matches the scalar samplers — a fixed seed is
// bit-identical across runs and worker counts (shard budgets are
// 64-aligned so lane blocks never split) — but its random stream differs
// from scalar MC's, so "mc" and "mcvec" estimates agree statistically, not
// bitwise.
//
// # Snapshots and the sampling hot path
//
// Internally every estimate runs on a frozen CSR snapshot of the graph
// (Graph.Freeze): a flat, immutable adjacency layout with arc-aligned
// probabilities that the samplers traverse with zero heap allocations per
// sample in steady state. The snapshot is cached on the graph, stamped
// with the graph's mutation version as its epoch (CSR.Epoch), and
// invalidated by mutations (AddEdge, SetProb, RemoveEdge); snapshots
// already handed out remain valid — an Engine clones the graph at
// construction, so its snapshots are isolated from caller mutations, and
// Engine.Apply only ever swaps in freshly built ones. Candidate-evaluation
// loops derive lightweight views with CSR.WithEdges (one candidate edge
// added as a delta layer over a shared base snapshot, the same layer Apply
// commits) instead of cloning the graph, which is what makes the batched
// EstimateEdges path cheap.
//
// Dataset stand-ins for the paper's evaluation graphs and the full
// experiment harness (one runner per table/figure) are exposed via
// LoadDataset and RunExperiment / RunExperimentContext.
package repro
