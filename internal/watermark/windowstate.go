package watermark

import (
	"fmt"
	"sort"
	"time"
)

// Pane is one fired (window, key) aggregate.
type Pane[T any] struct {
	// Start and End bound the window: [Start, End).
	Start, End time.Time
	// Key is the pane's grouping key.
	Key string
	// Acc is the final accumulator value.
	Acc T
}

// WindowState accumulates per-(window, key) state under any Assigner
// and fires panes once the watermark passes a window's end: tumbling
// windows assign each record to one pane, sliding windows to several
// overlapping panes, and session windows to a key-local pane that
// merges with overlapping sessions as records arrive (in any order).
//
// Firing order is deterministic given the record arrival order: windows
// fire ascending by (end, start), and keys within a non-merging window
// fire in first-seen order; merged sessions fire ascending by
// (start, end) with ties broken by key first-seen order. Every engine
// uses this state, so their pane multisets agree whenever they observe
// the same records — the property behind the byte-identical sorted
// outputs of the windowed benchmark queries.
type WindowState[T any] struct {
	assigner Assigner
	merge    func(into *T, from T)

	// Non-merging representation: shared windows keyed by span, and
	// their spans in a min-heap by (end, start). A watermark that
	// releases nothing costs one comparison, each fired window one pop.
	windows map[Span]*windowGroup[T]
	open    spanHeap

	// Merging representation: per-key session intervals.
	sessions map[string][]*session[T]
	keyRank  map[string]int
	nextRank int
}

// linearKeys is the most keys a window looks up by linear scan; a
// window with more builds a map index.
const linearKeys = 8

// windowGroup is one window's keyed accumulators in first-seen order.
// Panes before the fired cursor have been emitted.
type windowGroup[T any] struct {
	keys  []string
	accs  []T
	fired int
	index map[string]int // nil until the window holds more than linearKeys keys
}

// slot returns the index of key's unfired accumulator, appending a zero
// one when the key has none. A key whose pane already fired (before an
// emit error stopped the window) starts a new pane, as if its old one
// had been removed.
func (g *windowGroup[T]) slot(key string) int {
	if g.index == nil {
		for i := g.fired; i < len(g.keys); i++ {
			if g.keys[i] == key {
				return i
			}
		}
	} else if i, ok := g.index[key]; ok && i >= g.fired {
		return i
	}
	i := len(g.keys)
	g.keys = append(g.keys, key)
	var zero T
	g.accs = append(g.accs, zero)
	switch {
	case g.index != nil:
		g.index[key] = i
	case len(g.keys) > linearKeys:
		g.index = make(map[string]int, 2*len(g.keys))
		for j := g.fired; j < len(g.keys); j++ {
			g.index[g.keys[j]] = j
		}
	}
	return i
}

// session is one key's merged interval and accumulator.
type session[T any] struct {
	span Span
	acc  T
}

// NewWindowState returns empty state for the given assigner. merge
// combines two accumulators when session windows coalesce; it is
// required for merging assigners and ignored otherwise.
func NewWindowState[T any](a Assigner, merge func(into *T, from T)) (*WindowState[T], error) {
	if a == nil {
		return nil, fmt.Errorf("watermark: nil window assigner")
	}
	if a.Merges() && merge == nil {
		return nil, fmt.Errorf("watermark: assigner %s merges windows but no merge fn was given", a.Name())
	}
	return &WindowState[T]{
		assigner: a,
		merge:    merge,
		windows:  make(map[Span]*windowGroup[T]),
		sessions: make(map[string][]*session[T]),
		keyRank:  make(map[string]int),
	}, nil
}

// Assigner returns the state's window assigner.
func (s *WindowState[T]) Assigner() Assigner { return s.assigner }

// Upsert applies update to the accumulator of every window assigned to
// t for the given key, creating zero accumulators for new (window, key)
// pairs. Under a merging assigner the record's proto-session first
// coalesces with every overlapping or abutting session of the same key.
// The *T passed to update is valid only during the call: the state may
// move its accumulators afterwards.
func (s *WindowState[T]) Upsert(t time.Time, key string, update func(*T)) {
	if s.assigner.Merges() {
		s.upsertSession(t, key, update)
		return
	}
	for _, span := range s.assigner.Assign(t) {
		g, ok := s.windows[span]
		if !ok {
			g = &windowGroup[T]{}
			s.windows[span] = g
			s.open.push(span)
		}
		update(&g.accs[g.slot(key)])
	}
}

func (s *WindowState[T]) upsertSession(t time.Time, key string, update func(*T)) {
	if _, ok := s.keyRank[key]; !ok {
		s.keyRank[key] = s.nextRank
		s.nextRank++
	}
	proto := s.assigner.Assign(t)[0]
	merged := &session[T]{span: proto}
	var rest []*session[T]
	// Coalesce ascending by start so non-commutative accumulators see a
	// deterministic merge order regardless of arrival order.
	existing := s.sessions[key]
	sort.SliceStable(existing, func(i, j int) bool { return existing[i].span.Start.Before(existing[j].span.Start) })
	for _, sess := range existing {
		if overlapsOrAbuts(sess.span, proto) {
			if sess.span.Start.Before(merged.span.Start) {
				merged.span.Start = sess.span.Start
			}
			if sess.span.End.After(merged.span.End) {
				merged.span.End = sess.span.End
			}
			s.merge(&merged.acc, sess.acc)
		} else {
			rest = append(rest, sess)
		}
	}
	update(&merged.acc)
	s.sessions[key] = append(rest, merged)
}

func overlapsOrAbuts(a, b Span) bool {
	return !a.End.Before(b.Start) && !b.End.Before(a.Start)
}

// FireReady emits and removes every pane of windows the watermark has
// passed (watermark >= window end), in the deterministic order. It
// stops on the first emit error, leaving later panes in place.
func (s *WindowState[T]) FireReady(w time.Time, emit func(Pane[T]) error) error {
	if s.assigner.Merges() {
		return s.fireSessions(w, emit)
	}
	for len(s.open) > 0 && !w.Before(s.open[0].End) {
		span := s.open[0]
		// A span leaves the heap only after its window fired every pane
		// and left the map, so after an emit error a retry resumes the
		// same window at its first unfired pane.
		if err := s.fireWindow(span, emit); err != nil {
			return err
		}
		s.open.pop()
	}
	return nil
}

func (s *WindowState[T]) fireWindow(span Span, emit func(Pane[T]) error) error {
	g := s.windows[span]
	for ; g.fired < len(g.keys); g.fired++ {
		p := Pane[T]{Start: span.Start, End: span.End, Key: g.keys[g.fired], Acc: g.accs[g.fired]}
		if err := emit(p); err != nil {
			return err // unfired keys stay in place for the caller's error path
		}
	}
	delete(s.windows, span)
	return nil
}

func (s *WindowState[T]) fireSessions(w time.Time, emit func(Pane[T]) error) error {
	type ready struct {
		key  string
		idx  int
		sess *session[T]
	}
	var due []ready
	for key, sessions := range s.sessions {
		for i, sess := range sessions {
			if !w.Before(sess.span.End) {
				due = append(due, ready{key: key, idx: i, sess: sess})
			}
		}
	}
	sort.Slice(due, func(i, j int) bool {
		a, b := due[i].sess.span, due[j].sess.span
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		if !a.End.Equal(b.End) {
			return a.End.Before(b.End)
		}
		return s.keyRank[due[i].key] < s.keyRank[due[j].key]
	})
	for _, r := range due {
		p := Pane[T]{Start: r.sess.span.Start, End: r.sess.span.End, Key: r.key, Acc: r.sess.acc}
		if err := emit(p); err != nil {
			return err
		}
		remaining := s.sessions[r.key][:0]
		for _, sess := range s.sessions[r.key] {
			if sess != r.sess {
				remaining = append(remaining, sess)
			}
		}
		if len(remaining) == 0 {
			delete(s.sessions, r.key)
		} else {
			s.sessions[r.key] = remaining
		}
	}
	return nil
}

// FireAll emits and removes every remaining pane in the deterministic
// order; callers use it at end of input after finalizing the watermark.
func (s *WindowState[T]) FireAll(emit func(Pane[T]) error) error {
	return s.FireReady(EndOfTime, emit)
}

// Open reports how many windows (or sessions) currently hold state.
func (s *WindowState[T]) Open() int {
	if s.assigner.Merges() {
		n := 0
		for _, sessions := range s.sessions {
			n += len(sessions)
		}
		return n
	}
	return len(s.windows)
}

// spanHeap is a binary min-heap of window spans ordered by (End, Start).
// It is typed rather than built on container/heap, whose Push and Pop
// box each Span in an interface and so allocate.
type spanHeap []Span

func spanLess(a, b Span) bool {
	if c := a.End.Compare(b.End); c != 0 {
		return c < 0
	}
	return a.Start.Before(b.Start)
}

func (h *spanHeap) push(span Span) {
	q := append(*h, span)
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !spanLess(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

// pop removes the minimum span.
func (h *spanHeap) pop() {
	q := *h
	n := len(q) - 1
	q[0] = q[n]
	q[n] = Span{} // release the location pointers
	q = q[:n]
	for i := 0; ; {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && spanLess(q[r], q[child]) {
			child = r
		}
		if !spanLess(q[child], q[i]) {
			break
		}
		q[i], q[child] = q[child], q[i]
		i = child
	}
	*h = q
}
