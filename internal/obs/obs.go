package obs

import (
	"sort"
	"sync"
	"time"
)

// Phase is the Chrome trace-event phase of a recorded Event.
type Phase byte

const (
	// PhaseComplete is a span with a start and a duration ("X").
	PhaseComplete Phase = 'X'
	// PhaseCounter is a sampled value on a counter track ("C").
	PhaseCounter Phase = 'C'
	// PhaseInstant is a point-in-time marker ("i").
	PhaseInstant Phase = 'i'
)

// Event is one recorded trace event. Track maps to a Chrome trace
// thread (spans, instants) or counter series name; Start is an offset
// from the tracer's anchor, so events from one tracer share a single
// monotonic timeline.
type Event struct {
	Track string
	Name  string
	Phase Phase
	Start time.Duration
	Dur   time.Duration // PhaseComplete only
	Value float64       // PhaseCounter only
}

// core is the state shared by a root tracer and all its Scoped views:
// one anchor, one event ring, one drop counter.
type core struct {
	anchor time.Time

	mu  sync.Mutex
	buf []Event // ring storage, len == cap, overwritten in place
	seq uint64  // total events ever recorded
}

// Tracer records spans, instants, and counter samples into a shared
// ring. A nil Tracer is a valid disabled tracer: every method no-ops
// and allocates nothing.
//
// Scoped returns a view that prefixes track names, sharing the parent's
// ring; the harness gives each cell run its own scope so concurrent
// runs stay distinguishable in one trace file.
type Tracer struct {
	core   *core
	prefix string
}

// NewTracer builds a tracer whose ring holds up to capacity events;
// older events are overwritten once the ring is full. The single
// wall-clock read here anchors the monotonic timeline for every event
// and scope derived from this tracer.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	//beamvet:allow determinism trace anchor: sole wall-clock read, per doc.go contract
	anchor := time.Now()
	return &Tracer{core: &core{anchor: anchor, buf: make([]Event, capacity)}}
}

// Scoped returns a tracer view whose track names are prefixed with
// prefix + "/". It shares the parent's ring and anchor. Nil-safe.
func (t *Tracer) Scoped(prefix string) *Tracer {
	if t == nil {
		return nil
	}
	p := prefix
	if t.prefix != "" {
		p = t.prefix + "/" + prefix
	}
	return &Tracer{core: t.core, prefix: p}
}

// Now is the current offset on the tracer's monotonic timeline.
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.core.anchor)
}

func (t *Tracer) track(name string) string {
	if t.prefix == "" {
		return name
	}
	return t.prefix + "/" + name
}

func (c *core) record(ev Event) {
	c.mu.Lock()
	c.buf[c.seq%uint64(len(c.buf))] = ev
	c.seq++
	c.mu.Unlock()
}

// Span is an in-flight complete-event; End records it. The zero Span
// (from a nil tracer) is valid and End is a no-op.
type Span struct {
	t     *Tracer
	track string
	name  string
	start time.Duration
}

// Span opens a span on the given track. Call End on the returned value
// when the work finishes; until then nothing is recorded.
func (t *Tracer) Span(track, name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, track: t.track(track), name: name, start: t.Now()}
}

// End records the span. Safe on the zero Span.
func (s Span) End() {
	if s.t == nil {
		return
	}
	now := s.t.Now()
	s.t.core.record(Event{Track: s.track, Name: s.name, Phase: PhaseComplete, Start: s.start, Dur: now - s.start})
}

// Instant records a point-in-time marker on the given track.
func (t *Tracer) Instant(track, name string) {
	if t == nil {
		return
	}
	t.core.record(Event{Track: t.track(track), Name: name, Phase: PhaseInstant, Start: t.Now()})
}

// Counter records one sample of a counter series.
func (t *Tracer) Counter(track string, value float64) {
	if t == nil {
		return
	}
	t.core.record(Event{Track: t.track(track), Name: t.track(track), Phase: PhaseCounter, Start: t.Now(), Value: value})
}

// Events returns a copy of the retained events in recording order
// (oldest surviving event first).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	c := t.core
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.seq
	capacity := uint64(len(c.buf))
	if n > capacity {
		n = capacity
	}
	out := make([]Event, 0, n)
	start := c.seq - n
	for i := uint64(0); i < n; i++ {
		out = append(out, c.buf[(start+i)%capacity])
	}
	return out
}

// Dropped reports how many events have been overwritten because the
// ring was full.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	c := t.core
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.seq <= uint64(len(c.buf)) {
		return 0
	}
	return c.seq - uint64(len(c.buf))
}

// sortEvents orders a snapshot by start offset for export; recording
// order across goroutines is already close, but counter samples from
// the monitor interleave with span ends.
func sortEvents(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
}
