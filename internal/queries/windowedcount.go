package queries

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"beambench/internal/aol"
)

// WindowedCount parameters: per-user-ID counts over 1-second event-time
// tumbling windows. Event time is the record's own query-time column
// (not the broker append time, which differs between preload and stream
// ingestion), so the windowed output is deterministic across engines,
// APIs, parallelism levels and ingestion modes — the acceptance
// property of the stateful scenario.
const (
	// WindowedCountWindow is the tumbling window size.
	WindowedCountWindow = time.Second
	// WindowedCountBound is the assumed maximum event-time
	// out-of-orderness: the watermark trails the newest event time seen
	// by one window, delaying pane firing by at most one window against
	// a perfectly ordered stream while tolerating the reordering keyed
	// routing can introduce between source and stateful operator.
	WindowedCountBound = time.Second
)

// eventTimeLayout is the AOL query-time column format.
const eventTimeLayout = "2006-01-02 15:04:05"

// EventTime parses a record's event timestamp from its query-time
// column (the third tab-separated field). All four systems and the Beam
// translation derive event time this way, which is what makes the
// windowed aggregation reproducible from the dataset alone.
func EventTime(rec []byte) (time.Time, error) {
	col := nthColumn(rec, 2)
	if col == nil {
		return time.Time{}, fmt.Errorf("queries: record %.40q has no query-time column", rec)
	}
	if t, ok := parseEventTime(col); ok {
		return t, nil
	}
	//beamvet:allow hotalloc fallback for non-canonical forms only; the string does not escape time.Parse, so it converts through a stack buffer (0 allocs, TestKeyedStateProcessAllocs)
	t, err := time.Parse(eventTimeLayout, string(col))
	if err != nil {
		return time.Time{}, fmt.Errorf("queries: query time: %w", err)
	}
	return t, nil
}

// parseEventTime parses the exact eventTimeLayout form
// "YYYY-MM-DD hh:mm:ss" without allocating. It reports false for any
// other input, including an out-of-range field or a day past the end of
// its month, and leaves those to time.Parse, whose lenient forms (a
// one-digit hour, fractional seconds) and error messages then apply.
func parseEventTime(b []byte) (time.Time, bool) {
	if len(b) != len(eventTimeLayout) || b[4] != '-' || b[7] != '-' || b[10] != ' ' || b[13] != ':' || b[16] != ':' {
		return time.Time{}, false
	}
	year, ok1 := digits(b[0:4])
	month, ok2 := digits(b[5:7])
	day, ok3 := digits(b[8:10])
	hour, ok4 := digits(b[11:13])
	minute, ok5 := digits(b[14:16])
	sec, ok6 := digits(b[17:19])
	if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6) ||
		month < 1 || month > 12 || day < 1 || day > 31 || hour > 23 || minute > 59 || sec > 59 {
		return time.Time{}, false
	}
	t := time.Date(year, time.Month(month), day, hour, minute, sec, 0, time.UTC)
	// time.Date normalizes Feb 30 to Mar 2; time.Parse rejects it.
	return t, t.Day() == day
}

// digits parses b as an unsigned decimal of digits only.
func digits(b []byte) (int, bool) {
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// nthColumn returns the record's n-th (0-based) tab-separated column
// without allocating; nil when the record has fewer columns, an empty
// slice when the column exists but is empty (the absent-item-rank
// encoding).
func nthColumn(rec []byte, n int) []byte {
	start, col := 0, 0
	for i, b := range rec {
		if b != '\t' {
			continue
		}
		if col == n {
			return rec[start:i]
		}
		col++
		start = i + 1
	}
	if col == n {
		return rec[start:]
	}
	return nil
}

// EventTimeOf adapts EventTime to the abstraction layer's element-typed
// extractor (beam.EventTimeFn takes any).
func EventTimeOf(elem any) (time.Time, error) {
	rec, ok := elem.([]byte)
	if !ok {
		return time.Time{}, fmt.Errorf("queries: event-time element %T is not []byte", elem)
	}
	return EventTime(rec)
}

// UserKey returns a record's user-ID column, the WindowedCount grouping
// key.
func UserKey(rec []byte) ([]byte, error) {
	return aol.FirstColumn(rec), nil
}

// FormatWindowedCount renders one output record of the WindowedCount
// query: "<window-start-unix>\t<user-id>\t<count>". The triple is
// unique per pane, so outputs are pairable and the sorted output set is
// byte-identical across systems.
func FormatWindowedCount(windowStart time.Time, user []byte, count int64) []byte {
	out := make([]byte, 0, 24+len(user))
	out = strconv.AppendInt(out, windowStart.Unix(), 10)
	out = append(out, '\t')
	out = append(out, user...)
	out = append(out, '\t')
	out = strconv.AppendInt(out, count, 10)
	return out
}

// windowedGroup is one expected (window, user) aggregate derived from
// the input dataset.
type windowedGroup struct {
	payload []byte
	// lastInput is the append ordinal of the group's latest contributing
	// input record — the record whose arrival completes the pane, and
	// therefore the anchor for event-time latency pairing of keyed
	// outputs.
	lastInput int
}

// windowedAggregator accumulates the expected WindowedCount output set
// from input records, in the deterministic pane order (ascending window,
// keys first-seen within a window).
type windowedAggregator struct {
	counts map[int64]map[string]*windowedCountEntry
	order  []int64 // window starts in first-seen order; sorted at build
}

type windowedCountEntry struct {
	count     int64
	lastInput int
	seen      int // first-seen rank within the window
}

func newWindowedAggregator() *windowedAggregator {
	return &windowedAggregator{counts: make(map[int64]map[string]*windowedCountEntry)}
}

// add feeds one input record with its append ordinal.
func (a *windowedAggregator) add(rec []byte, ordinal int) error {
	et, err := EventTime(rec)
	if err != nil {
		return err
	}
	start := et.Truncate(WindowedCountWindow).Unix()
	user := string(aol.FirstColumn(rec))
	byUser, ok := a.counts[start]
	if !ok {
		byUser = make(map[string]*windowedCountEntry)
		a.counts[start] = byUser
		a.order = append(a.order, start)
	}
	e, ok := byUser[user]
	if !ok {
		e = &windowedCountEntry{seen: len(byUser)}
		byUser[user] = e
	}
	e.count++
	e.lastInput = ordinal
	return nil
}

// groups returns the expected panes in the deterministic order.
func (a *windowedAggregator) groups() []windowedGroup {
	starts := append([]int64(nil), a.order...)
	sortInt64s(starts)
	var out []windowedGroup
	for _, start := range starts {
		byUser := a.counts[start]
		users := make([]string, len(byUser))
		for u, e := range byUser {
			users[e.seen] = u
		}
		for _, u := range users {
			e := byUser[u]
			out = append(out, windowedGroup{
				payload:   FormatWindowedCount(time.Unix(start, 0).UTC(), []byte(u), e.count),
				lastInput: e.lastInput,
			})
		}
	}
	return out
}

func sortInt64s(v []int64) {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
}

// ExpectedWindowedCounts computes the WindowedCount output payloads a
// dataset must produce, in the deterministic pane order every engine
// fires in on ordered input. Tests and the result calculator use it as
// the reference.
func ExpectedWindowedCounts(records [][]byte) ([][]byte, error) {
	agg := newWindowedAggregator()
	for i, rec := range records {
		if err := agg.add(rec, i); err != nil {
			return nil, err
		}
	}
	groups := agg.groups()
	out := make([][]byte, len(groups))
	for i, g := range groups {
		out[i] = g.payload
	}
	return out, nil
}
