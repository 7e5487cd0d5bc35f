// Package obs is the run-observation layer: span tracing, lag gauges,
// and profiling hooks that let a benchmark cell be inspected *while it
// runs* rather than only through the aggregate report.
//
// # Contract
//
// Everything in this package follows the nil-safe collector pattern
// established by internal/metrics: a nil *Tracer, nil *Run, nil *Gauge,
// nil *Monitor, or zero Span is a valid, fully disabled instance —
// every method is a no-op and the record hot path performs zero
// allocations.
//
// A run's telemetry travels as one value, the *Run handle. The harness
// builds it once per benchmark run from the run's tracer scope (nil
// unless tracing is on), the cell's metrics collector (nil unless
// metrics are on) and the run broker's consumer-lag and topic-end
// probes, and threads it through every engine config unconditionally;
// engines call Span, Instant, Gauge and Stage on it and never branch on
// "is telemetry on". The handle keeps watermark gauges only when
// someone can read them — the trace monitor or a live plane — so a run
// with neither stores nothing.
//
// Timestamps are monotonic. A Tracer reads the wall clock exactly once,
// at construction, to anchor the trace; every event time after that is
// a time.Since against that anchor, so spans are immune to wall-clock
// steps mid-run. Code in this package that needs another wall-clock
// read must carry a `beamvet:allow determinism` directive — the
// package is inside the determinism analyzer's scope on purpose.
//
// # Spans and counters
//
// Span events land in a fixed-capacity ring guarded by a single short
// mutex hold. When the ring is full the oldest events are overwritten
// and Dropped reports how many; recording never blocks and never
// allocates after the ring is built. The trace exports as Chrome
// trace-event JSON (WriteChromeTrace) and opens directly in Perfetto
// or chrome://tracing. Gauges hold the latest value of a sampled
// quantity (an operator's watermark) in an atomic. On a traced run the
// Monitor goroutine reads the run's handle at a configurable cadence —
// consumer lag from the broker probe, stage rates from the collector,
// watermark lag from the gauges — and turns each reading into a counter
// track and into per-run max/mean summaries for the report.
//
// # Watermark-lag semantics
//
// Event times in this benchmark are synthetic (the AOL QueryTime
// column), so "processing time minus watermark" is meaningless.
// Watermark lag is instead frontier-relative: at each reading the most
// advanced live watermark across the run's operators is the frontier,
// and each operator reports its distance behind it, in seconds. An
// operator at watermark.EndOfTime has drained and reports zero lag.
// One function computes it, for both the Monitor's ticks and the
// Plane's scrapes.
//
// # Snapshots and exposition
//
// The Plane is the pull-based live-telemetry registry: the harness
// registers every matrix cell on it (pending -> running -> done /
// skipped / failed) and attaches each run's telemetry handle
// (LiveCell.StartRun). Nothing is sampled until someone asks:
// Snapshot() walks the cells and reads each handle at call time — the
// collector's stages and latency sketch, the watermark gauges, and the
// broker's consumer-lag and topic-end probes — so a plane attached to
// a run that nobody scrapes costs exactly the field assignments in
// StartRun/EndRun. Consistency is per-cell — each cell's fields are
// read under its own short mutex hold, never under a global lock, and
// none of the reads sit on a per-record path (the collector is
// internally locked, gauges are atomics, the broker probes take
// broker-internal locks).
//
// Serve exposes the plane over HTTP: /metrics in OpenMetrics text
// exposition (hand-rolled writer + strict parser in openmetrics.go, no
// dependencies), /snapshot as versioned JSON (SnapshotSchemaVersion),
// and /debug/pprof on an explicitly built mux. The same nil-safe
// contract applies end to end: a nil *Plane is a valid disabled plane
// — Cell returns a nil *LiveCell whose lifecycle methods no-op, and a
// nil plane still serves the empty snapshot — so the harness threads
// Config.Plane unconditionally, exactly like the run handle.
package obs
