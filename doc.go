// Package privelet is a Go implementation of Privelet, the
// differentially-private data publishing technique of Xiao, Wang and
// Gehrke, "Differential Privacy via Wavelet Transforms" (ICDE 2010).
//
// Privelet releases a noisy frequency matrix M* of a relational table
// under ε-differential privacy. Where the classic Laplace mechanism
// ("Basic", Dwork et al.) gives range-count queries noise variance linear
// in the domain size m, Privelet applies a wavelet transform first — the
// Haar transform on ordinal attributes and the paper's novel nominal
// wavelet transform on hierarchy-bearing attributes — and calibrates
// per-coefficient noise so every range-count query's noise variance is
// polylogarithmic in m.
//
// # Quick start
//
//	gender, _ := privelet.FlatHierarchy(2)
//	schema, _ := privelet.NewSchema(
//		privelet.OrdinalAttr("Age", 101),
//		privelet.NominalAttr("Gender", gender),
//	)
//	pub, _ := privelet.NewPublisher(schema)
//	// ... pub.Add(age, gender) for each record, straight off the wire ...
//
//	rel, _ := pub.Publish(ctx, "privelet+", privelet.Params{
//		Epsilon: 1.0,
//		SA:      []string{"Gender"}, // small domains skip the transform
//		Seed:    42,
//	})
//	q, _ := rel.NewQuery().Range("Age", 30, 49).Build()
//	count, _ := rel.Count(q)
//
// The released matrix answers arbitrarily many queries at no further
// privacy cost; the ε budget is spent once, at publish time.
//
// # Mechanisms
//
// Publishing algorithms implement the Mechanism interface — Name() plus
// Publish(ctx, *Frequency, Params) — and live in a process-wide registry
// keyed by name. Four are built in:
//
//   - "privelet+" — the paper's Figure 5: wavelet transform over the
//     non-SA attributes, per-entry noise over the SA ones (§VI-D).
//   - "privelet" — plain Privelet (§III): the transform over every
//     attribute; rejects a non-empty Params.SA.
//   - "basic" — Dwork et al.'s per-entry Laplace(2/ε) mechanism (§II-B).
//   - "hay" — Hay et al.'s hierarchical-consistency mechanism for
//     one-dimensional histograms (§VIII's closest related work).
//
// MechanismByName resolves a name, Mechanisms lists what is registered,
// and RegisterMechanism lets an embedding process add its own — new
// mechanisms become selectable from the CLI (-mechanism) and the HTTP
// server (?mechanism=) without touching either. The mechanism name is
// part of a release's accounting: it travels through Save/Load, the
// daemon's store and its /export endpoint, and survives a daemon
// restart.
//
// # Streaming ingest
//
// A Publisher folds rows into the frequency matrix as they arrive
// (Add/AddBatch), so ingest memory is O(domain) no matter how many rows
// stream through — Add allocates nothing. PublishWith runs any
// registered mechanism over the accumulated Frequency; a Frequency can
// also be built from a buffered Table (TableFrequency) or from a raw
// matrix (NewFrequency).
//
// # Cancellation
//
// The publish path takes a context.Context from the Mechanism interface
// down into the engine's fan-out workers, who observe it between
// sub-matrices, between 64Ki-entry noise chunks, and between the 1-D
// vectors inside every wavelet step — so even a single-sub-matrix
// publish over a huge multi-dimensional domain aborts mid-transform
// (one 1-D vector is the residual indivisible unit: a one-dimensional
// domain cancels between steps). A cancelled publish returns the
// context's error, releases nothing, and leaves no goroutines behind.
// The HTTP server ties each publish to its request context, so a
// disconnected client cancels its own in-flight work (reported as 499).
//
// # Publish engine
//
// Publishing runs on a parallel, allocation-frugal engine. The Figure-5
// sub-matrices (one per combination of SA coordinates) are independent,
// as are the 1-D vectors inside each wavelet step, the 64Ki-entry chunks
// of the Laplace noise-injection pass, and the scans of the prefix-sum
// evaluator build — the engine fans all of them across a worker pool of
// Params.Parallelism goroutines (default: runtime.GOMAXPROCS(0)). Each
// worker owns a ping-pong buffer pair and a kernel cache, so a
// d-dimensional forward+inverse pass reuses two backing slices and d
// pre-built kernels (with their scratch) across every sub-matrix the
// worker drains; vectors along the innermost dimension are handed to the
// wavelet kernels as direct slices of the backing arrays (zero-copy).
//
// Parallelism never changes a release. Randomized work draws from
// SplitMix-derived substreams keyed by position, never visit order: the
// Laplace stream of sub-matrix k is keyed by (Params.Seed, k), and each
// noise chunk c within it re-substreams that derived seed by c — see
// internal/rng.Substream — so equal seeds give bit-identical releases at
// parallelism 1, 4, or a whole fleet of cores. The determinism contract
// (what exactly is guaranteed, and what is not, across versions) is
// written out in docs/ARCHITECTURE.md, alongside the layer diagram and
// the durability chokepoint; docs/BENCHMARKS.md covers the performance
// baselines.
//
// # Serving releases
//
// A release is a publish-once artifact: Save writes it in a versioned
// binary format and Load reconstructs it with no further privacy cost.
// The same format backs the whole deployment story — cmd/priveletd
// serves releases over HTTP from a release store
// (internal/store) that spills cold releases to disk, recovers them
// after a restart, and deletes their files on DELETE /releases/{id};
// its /export endpoint, its spill files, and Save/Load are
// byte-compatible with each other.
//
// Query serving is batch-first, matching the paper's evaluation shape
// (§VII answers 40 000 queries per experiment): Release.CountBatch fans
// a query slice across a worker pool with answers bit-identical
// (float64 ==) to a serial Count loop at any worker count, the daemon's
// POST /releases/{id}/query endpoint answers a whole workload body in
// one request, and cmd/privelet -load/-query does the same for saved
// artifacts — all three run internal/query's parse→execute pipeline over
// one shared workload wire format (one predicate spec per line in, one
// answer per line and a trailer out; see docs/ARCHITECTURE.md's "Query
// serving" section).
//
// # Continual publication and privacy budgets
//
// The paper spends ε once, at publish time (§III); over an evolving
// table each republish adds its ε under sequential composition, and a
// Ledger is the account keeping that total inside a budget:
//
//	led, _ := privelet.NewLedger("/var/lib/privelet", 1.0) // 1ε per tenant, durable
//	c, _ := privelet.NewContinual(schema, privelet.ContinualOptions{
//		Tenant: "alice", Ledger: led, Params: privelet.Params{Epsilon: 0.4, Seed: seed},
//	})
//	// ... c.Add(ctx, ...) ...
//	ep, err := c.Republish(ctx) // ep.ID() is "alice/<epoch>"
//	if errors.Is(err, privelet.ErrBudgetExhausted) {
//		// refused before any noise was drawn; nothing was spent
//	}
//
// Republish runs through Ledger.Spend, the one charge-gated publish: it
// charges before publishing and refunds if the publish fails or is
// cancelled — only released noise costs budget. Epoch k draws its noise
// from a seed derived from Params.Seed and k, so no two epochs share a
// noise stream. Balances are exact (fixed-point 10⁻⁶ ε units, so
// refusals are deterministic) and, with a directory, durable across
// restarts. With Window 0, as here, each Republish publishes the
// cumulative matrix; with Window > 0 rows feed a sliding window that is
// republished every Window rows. Each epoch is a store release under
// the ID "<tenant>/<epoch>". The daemon exposes the same gate at
// POST /tenants/{id}/publish (typed 429 on refusal) and
// GET /tenants/{id}/budget.
//
// # Security note
//
// This library reproduces the paper's mechanisms for research and
// benchmarking. The noise generator is a seeded deterministic PRNG so
// experiments are replayable; a hardened production deployment must
// instead draw from a cryptographically secure source and must not expose
// seeds. Floating-point Laplace sampling is also subject to the usual
// Mironov-style attacks, which the 2010 paper (and hence this
// reproduction) predates.
package privelet
