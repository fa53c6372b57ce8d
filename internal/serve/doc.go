// Package serve is the sweep control plane: a job system that runs the
// same RunSpecs pabstsim executes, as long-running, fault-tolerant
// infrastructure.
//
// A job is an exp.RunSpec — a serializable description of one canonical
// benchmark run. The service admits jobs into a bounded queue (rejecting
// with a typed error when full, never growing without bound), executes
// them on a fixed pool of Workers goroutines with per-job deadlines, and
// isolates panicking simulations to the job that caused them. A run
// stops only through its context — its deadline, a drain or a shutdown
// cancels it — which the simulator's RunContext checks at every epoch
// boundary; nothing watches a run that ignores it, and Drain and Close
// stop waiting for one when their context or DrainGrace ends, naming
// its job in their error.
//
// A job runs once, and its first outcome is final: done, failed (an
// error, or a panic with its stack), or canceled by its own deadline.
// Nothing retries, because a run does no I/O — the service admits only
// preset fault plans — so the same spec fails the same way every time. Only a drain or a shutdown puts a job
// back on the queue.
//
// Durability follows an at-least-once contract. Every accepted job is
// appended to a JSONL journal before Submit returns; completion and
// failure are journaled as they happen; on restart the journal is
// replayed and every non-terminal job re-enters the queue exactly once.
// Re-execution is safe because a spec's config fingerprint pins its
// simulated outcome: running the same spec twice produces bit-identical
// results, so at-least-once execution plus idempotent results equals
// effective exactly-once semantics. The same pin lets a Service answer
// a spec it has already completed from its result cache (exp.RunCache
// in Config.Exec.Results, keyed by spec fingerprint): the job still
// passes queued → running → done through a worker, with one run and
// its journal records, but that run takes microseconds. The cache lives
// as long as the Service; a restarted service re-simulates.
//
// Graceful drain (SIGTERM/SIGINT in cmd/pabstserve) stops admission,
// gives in-flight jobs a grace period to finish, then cancels the rest;
// a cancelled run is requeued, and the restarted service reruns it
// from a fresh machine, so a restart costs each in-flight job at most
// one warmup and one measure window
// (DESIGN.md "What earned its place" has the measured bound that
// retired the on-disk checkpoints). Queued jobs survive via journal
// compaction. The state directory holds only the journal, and no
// journal record refers to a file.
//
// Observability rides on the existing internal/obs registry: queue
// depth, in-flight count, live workers, per-outcome counters and the
// result cache's hits, all rendered as Prometheus text by the REST
// layer's /metrics.
package serve
