package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"beambench/internal/metrics"
)

// Run is the run-scoped telemetry handle: the one value a benchmark
// run threads through its engines and hands to its observers. It
// bundles the run's tracer scope (spans, instants), the cell's metrics
// collector (per-stage throughput), a registry of per-operator
// watermark gauges, and the run broker's two live probes (consumer lag
// and topic end offsets). The engines write through Span, Instant,
// Gauge and Stage; the Monitor and the Plane read the same handle. A
// nil *Run is a valid, fully disabled handle.
type Run struct {
	tr   *Tracer
	col  *metrics.Collector
	lag  func() []LagSample
	ends func() (in, out int64, ok bool)
	// gauged is fixed at construction: gauges are registered only while
	// someone can read them (the trace monitor or a live plane).
	gauged bool

	mu     sync.Mutex
	gauges map[string]*Gauge
	order  []*Gauge
}

// NewRun builds a run's telemetry handle. tr is the run's tracer scope
// (nil unless tracing is on), col the cell's collector (nil unless
// metrics are on), live reports whether a live plane reads the run, and
// consumerLag / topicEnds probe the run's broker at read time (topicEnds
// reports ok=false once a topic is gone). The handle keeps a gauge
// registry only when tracing is on or the run is live; with none of the
// three it is nil, and every engine call on it is a no-op.
func NewRun(tr *Tracer, col *metrics.Collector, live bool, consumerLag func() []LagSample, topicEnds func() (in, out int64, ok bool)) *Run {
	if tr == nil && col == nil && !live {
		return nil
	}
	return &Run{tr: tr, col: col, lag: consumerLag, ends: topicEnds, gauged: tr != nil || live}
}

// Span opens a span on the run's tracer. Nil-safe: without tracing the
// zero Span comes back and End records nothing.
func (r *Run) Span(track, name string) Span {
	if r == nil {
		return Span{}
	}
	return r.tr.Span(track, name)
}

// Instant records a point-in-time marker on the run's tracer. Nil-safe.
func (r *Run) Instant(track, name string) {
	if r == nil {
		return
	}
	r.tr.Instant(track, name)
}

// Stage returns the cell collector's counter for the named stage. A nil
// handle or one without a collector returns a nil stage, whose methods
// are no-ops.
func (r *Run) Stage(name string) *metrics.Stage {
	if r == nil {
		return nil
	}
	return r.col.Stage(name)
}

// Gauge returns the gauge registered under name, creating it on first
// use. Without a reader (no tracing, no live plane) it returns a nil
// gauge, whose Set/SetTime are no-ops, so nothing is stored.
func (r *Run) Gauge(name string) *Gauge {
	if r == nil || !r.gauged {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	if r.gauges == nil {
		r.gauges = make(map[string]*Gauge)
	}
	g := &Gauge{name: name}
	r.gauges[name] = g
	r.order = append(r.order, g)
	return g
}

// consumerLag probes per-partition consumer lag on the run's broker.
func (r *Run) consumerLag() []LagSample {
	if r == nil || r.lag == nil {
		return nil
	}
	return r.lag()
}

// topicEnds probes the benchmark topics' end offsets.
func (r *Run) topicEnds() (in, out int64, ok bool) {
	if r == nil || r.ends == nil {
		return 0, 0, false
	}
	return r.ends()
}

// eachWatermarkLag is the frontier-relative watermark lag (see the
// package comment): the most advanced live watermark across the run's
// gauges is the frontier, and fn receives each gauge's name with its
// distance behind the frontier in seconds. A drained operator
// (watermark.EndOfTime) reports zero; a gauge never set reports
// nothing. Gauges arrive in first-use order.
func (r *Run) eachWatermarkLag(fn func(name string, lagSec float64)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	gauges := append([]*Gauge(nil), r.order...)
	r.mu.Unlock()
	var frontier int64
	for _, g := range gauges {
		if v := g.Load(); v != 0 && v != endOfTimeNanos && v > frontier {
			frontier = v
		}
	}
	for _, g := range gauges {
		v := g.Load()
		if v == 0 {
			continue
		}
		lag := 0.0
		if v != endOfTimeNanos {
			lag = max(float64(frontier-v)/1e9, 0)
		}
		fn(g.name, lag)
	}
}

// watermarkLags is the plane's view of eachWatermarkLag: one entry per
// operator, labelled with the name the engine chose and sorted by it.
func (r *Run) watermarkLags() []WatermarkLag {
	var out []WatermarkLag
	r.eachWatermarkLag(func(name string, lag float64) {
		out = append(out, WatermarkLag{Operator: strings.TrimPrefix(name, "watermark-lag/"), LagSec: lag})
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Operator < out[j].Operator })
	return out
}

// endOfTimeNanos matches watermark.EndOfTime.UnixNano(): an operator
// whose watermark gauge holds it has drained and reports zero lag.
// (Duplicated as a constant to keep obs free of engine imports.)
const endOfTimeNanos = math.MaxInt64

// Gauge holds the most recent value of a sampled quantity. Writers set
// it from the hot path with a single atomic store; the Monitor and the
// Plane read it at their own cadence. A nil Gauge no-ops.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set stores a raw value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// SetTime stores a timestamp (e.g. a watermark) as Unix nanoseconds.
func (g *Gauge) SetTime(ts time.Time) {
	if g == nil {
		return
	}
	g.v.Store(ts.UnixNano())
}

// Load returns the last stored value, zero if never set or nil.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}
