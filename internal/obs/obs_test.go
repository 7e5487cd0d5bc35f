package obs

import (
	"testing"
	"time"

	"beambench/internal/metrics"
)

func TestSpanAndInstantRecording(t *testing.T) {
	tr := NewTracer(64)
	sp := tr.Span("harness", "run")
	tr.Instant("panes", "pane-fire")
	sp.End()

	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	// Recording order: the instant lands before the span's End.
	if evs[0].Phase != PhaseInstant || evs[0].Track != "panes" {
		t.Errorf("first event = %+v, want instant on panes", evs[0])
	}
	if evs[1].Phase != PhaseComplete || evs[1].Track != "harness" || evs[1].Name != "run" {
		t.Errorf("second event = %+v, want complete span harness/run", evs[1])
	}
	if evs[1].Dur < 0 {
		t.Errorf("span duration negative: %v", evs[1].Dur)
	}
	if d := tr.Dropped(); d != 0 {
		t.Errorf("Dropped() = %d, want 0", d)
	}
}

// TestRingOverflow is the satellite contract: when the ring fills, the
// oldest events are dropped, the drop count is reported, and recording
// keeps succeeding without blocking.
func TestRingOverflow(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Counter("c", float64(i))
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want ring capacity 4", len(evs))
	}
	// The four newest survive: values 6..9.
	for i, ev := range evs {
		if want := float64(6 + i); ev.Value != want {
			t.Errorf("event %d value = %v, want %v (oldest must be dropped first)", i, ev.Value, want)
		}
	}
	if d := tr.Dropped(); d != 6 {
		t.Errorf("Dropped() = %d, want 6", d)
	}
}

func TestScopedPrefixesTracksAndGauges(t *testing.T) {
	tr := NewTracer(16)
	scope := tr.Scoped("flink native WindowedCount/run0")
	scope.Span("harness", "execute").End()
	evs := tr.Events() // scope shares the parent ring
	if len(evs) != 1 || evs[0].Track != "flink native WindowedCount/run0/harness" {
		t.Fatalf("events = %+v, want one span on the scoped track", evs)
	}
	// Nested scopes compose.
	inner := scope.Scoped("sub")
	inner.Instant("i", "x")
	if evs := tr.Events(); len(evs) != 2 || evs[1].Track != "flink native WindowedCount/run0/sub/i" {
		t.Errorf("nested scope events = %+v", evs)
	}
	// A run's gauges keep the bare name the engine chose; the scope
	// prefixes only the counter track the monitor records them on.
	run := NewRun(scope, nil, false, nil, nil)
	run.Gauge("watermark-lag/GroupByKey").SetTime(time.Unix(5, 0))
	m := NewMonitor(run, time.Hour)
	m.Start()
	if sums := m.Stop(); len(sums) != 1 || sums[0].Name != "watermark-lag/GroupByKey" {
		t.Errorf("summaries = %+v, want the bare gauge name", sums)
	}
	evs = tr.Events()
	if last := evs[len(evs)-1]; last.Phase != PhaseCounter || last.Track != "flink native WindowedCount/run0/watermark-lag/GroupByKey" {
		t.Errorf("counter event = %+v, want it on the scoped track", last)
	}
}

func TestGaugeSetTime(t *testing.T) {
	g := NewRun(nil, nil, true, nil, nil).Gauge("wm")
	ts := time.Unix(10, 500)
	g.SetTime(ts)
	if got := g.Load(); got != ts.UnixNano() {
		t.Errorf("Load() = %d, want %d", got, ts.UnixNano())
	}
	g.Set(42)
	if got := g.Load(); got != 42 {
		t.Errorf("Load() = %d, want 42", got)
	}
}

// TestNilTracerIsDisabled pins the nil-safe contract: every method on a
// nil tracer, run handle, gauge, span, and monitor is a no-op.
func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	sp := tr.Span("a", "b")
	sp.End()
	tr.Instant("a", "b")
	tr.Counter("a", 1)
	if tr.Scoped("x") != nil {
		t.Error("nil.Scoped() != nil")
	}
	if tr.Events() != nil || tr.Dropped() != 0 {
		t.Error("nil tracer reports state")
	}
	var run *Run
	if NewRun(nil, nil, false, nil, nil) != nil {
		t.Error("NewRun with no tracer, collector or plane != nil")
	}
	run.Span("a", "b").End()
	run.Instant("a", "b")
	run.Stage("s").Mark(1)
	run.Gauge("g").Set(1)
	run.Gauge("g").SetTime(time.Unix(1, 0))
	if run.Gauge("g").Load() != 0 {
		t.Error("nil gauge Load() != 0")
	}
	// Metrics alone: no reader for gauges, so none is kept.
	if g := NewRun(nil, metrics.NewCollector(), false, nil, nil).Gauge("g"); g != nil {
		t.Error("metrics-only run keeps gauges")
	}
	if m := NewMonitor(nil, time.Millisecond); m != nil {
		t.Error("NewMonitor(nil) != nil")
	}
	if m := NewMonitor(NewRun(nil, nil, true, nil, nil), time.Millisecond); m != nil {
		t.Error("NewMonitor on an untraced run != nil")
	}
	var m *Monitor
	m.Start()
	if m.Stop() != nil {
		t.Error("nil monitor Stop() != nil")
	}
}

// TestNilHotPathAllocations is the acceptance criterion: with telemetry
// disabled, the record hot path performs zero allocations.
func TestNilHotPathAllocations(t *testing.T) {
	var tr *Tracer
	var run *Run
	g := run.Gauge("wm")
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Span("track", "name")
		tr.Instant("track", "name")
		tr.Counter("track", 1)
		rs := run.Span("track", "name")
		run.Instant("track", "name")
		run.Stage("s").Mark(1)
		g.Set(7)
		rs.End()
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("nil hot path allocates %v per op, want 0", allocs)
	}
}

// TestEnabledHotPathAllocations: an enabled tracer's record path reuses
// the preallocated ring — recording itself must not allocate either.
func TestEnabledHotPathAllocations(t *testing.T) {
	run := NewRun(NewTracer(1<<10), nil, false, nil, nil)
	g := run.Gauge("wm")
	allocs := testing.AllocsPerRun(1000, func() {
		sp := run.Span("track", "name")
		g.Set(7)
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("enabled hot path allocates %v per op, want 0", allocs)
	}
}

func TestDroppedCountsOnlyOverwrites(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 8; i++ {
		tr.Counter("c", float64(i))
	}
	if d := tr.Dropped(); d != 0 {
		t.Errorf("full-but-not-overflowed ring reports %d dropped", d)
	}
	tr.Counter("c", 8)
	if d := tr.Dropped(); d != 1 {
		t.Errorf("Dropped() = %d after one overwrite, want 1", d)
	}
}
