package queries

import (
	"fmt"
	"strconv"
	"time"

	"beambench/internal/aol"
	"beambench/internal/watermark"
)

// Join parameters: a two-input windowed equi-join. Both inputs read the
// same AOL topic; side A is the query stream (every record, carrying
// the query text) and side B is the click stream (only records with an
// item rank). Within 1-second event-time tumbling windows the sides
// join on the user ID, emitting one output row per (query, rank) pair —
// an inner join, so windows where a user has no click produce nothing.
//
// The query exists to exercise the multi-input half of the control-
// event watermark architecture: two sources, per-branch timestamp
// assignment, a merge (Union/Flatten) whose watermark is the minimum
// over its inputs, and a keyed stateful operator that must not fire a
// pane before both branches' watermarks have passed its end.
const (
	// JoinWindow is the tumbling join window size.
	JoinWindow = time.Second
	// JoinBound is the assumed maximum event-time out-of-orderness per
	// branch (see WindowedCountBound).
	JoinBound = time.Second
)

// Tagged records: each join branch prefixes its records with a side tag
// ("A\t" or "B\t") before the merge, so the downstream keyed state can
// tell the sides apart while event time and user key still parse from
// the embedded original record.

// TagSideA tags a query-stream record.
func TagSideA(rec []byte) []byte {
	return append([]byte("A\t"), rec...)
}

// TagSideB tags a click-stream record.
func TagSideB(rec []byte) []byte {
	return append([]byte("B\t"), rec...)
}

// taggedParts splits a tagged record into its side and the original
// payload.
func taggedParts(tagged []byte) (side byte, payload []byte, err error) {
	if len(tagged) < 2 || tagged[1] != '\t' || (tagged[0] != 'A' && tagged[0] != 'B') {
		return 0, nil, fmt.Errorf("queries: join record %.40q has no side tag", tagged)
	}
	return tagged[0], tagged[2:], nil
}

// TaggedEventTime parses the event time of a tagged join record.
func TaggedEventTime(tagged []byte) (time.Time, error) {
	_, payload, err := taggedParts(tagged)
	if err != nil {
		return time.Time{}, err
	}
	return EventTime(payload)
}

// TaggedEventTimeOf adapts TaggedEventTime to the abstraction layer's
// element-typed extractor.
func TaggedEventTimeOf(elem any) (time.Time, error) {
	rec, ok := elem.([]byte)
	if !ok {
		return time.Time{}, fmt.Errorf("queries: join event-time element %T is not []byte", elem)
	}
	return TaggedEventTime(rec)
}

// TaggedUserKey returns the user-ID grouping key of a tagged record.
func TaggedUserKey(tagged []byte) ([]byte, error) {
	_, payload, err := taggedParts(tagged)
	if err != nil {
		return nil, err
	}
	return aol.FirstColumn(payload), nil
}

// QueryText returns a record's query column (the second tab-separated
// field), the join's side-A payload.
func QueryText(rec []byte) []byte {
	return nthColumn(rec, 1)
}

// FormatJoin renders one joined pair:
// "<window-start-unix>\t<user-id>\t<query>\t<rank>".
func FormatJoin(windowStart time.Time, user, query []byte, rank int64) []byte {
	out := make([]byte, 0, 26+len(user)+len(query))
	out = strconv.AppendInt(out, windowStart.Unix(), 10)
	out = append(out, '\t')
	out = append(out, user...)
	out = append(out, '\t')
	out = append(out, query...)
	out = append(out, '\t')
	out = strconv.AppendInt(out, rank, 10)
	return out
}

// joinAcc is one (window, user) join pane: the side-A query texts and
// side-B ranks in arrival order. Per-sender FIFO delivery keeps each
// side's relative order deterministic even when the branches' merge
// interleaves nondeterministically, so the A-major cross product emits
// in a stable order per pane.
type joinAcc struct {
	queries [][]byte
	ranks   []int64
}

// joinState is the engine-shared join executable: tagged records
// accumulate per (window, user), and panes emit the A x B cross product
// once the propagated watermark passes the window's end. Every engine
// deploys it through the same keyedState adapter as aggState, so the
// join semantics are defined exactly once.
type joinState struct {
	state *watermark.WindowState[joinAcc]
}

// newJoinState returns empty join state over JoinWindow tumbling
// windows.
func newJoinState() keyedState {
	a, err := watermark.NewTumblingAssigner(JoinWindow)
	if err != nil {
		panic(err) // constant window size; cannot fail
	}
	state, err := watermark.NewWindowState[joinAcc](a, nil)
	if err != nil {
		panic(err)
	}
	return &joinState{state: state}
}

// Process accumulates one tagged record into its (window, user) pane.
func (s *joinState) Process(tagged []byte) error {
	side, payload, err := taggedParts(tagged)
	if err != nil {
		return err
	}
	et, err := EventTime(payload)
	if err != nil {
		return err
	}
	//beamvet:allow hotalloc pane state keys by string: one key allocation per record, pinned by TestKeyedStateProcessAllocs
	user := string(aol.FirstColumn(payload))
	switch side {
	case 'A':
		q := append([]byte(nil), QueryText(payload)...)
		//beamvet:allow hotalloc the update closure does not escape Upsert (gcflags -m), so it stays on the stack; pinned by TestKeyedStateProcessAllocs
		s.state.Upsert(et, user, func(a *joinAcc) { a.queries = append(a.queries, q) })
	default:
		rank, err := ItemRank(payload)
		if err != nil {
			return err
		}
		//beamvet:allow hotalloc the update closure does not escape Upsert (gcflags -m), so it stays on the stack; pinned by TestKeyedStateProcessAllocs
		s.state.Upsert(et, user, func(a *joinAcc) { a.ranks = append(a.ranks, rank) })
	}
	return nil
}

// Fire emits every pane the watermark has passed.
func (s *joinState) Fire(w time.Time, emit func([]byte) error) error {
	return s.state.FireReady(w, joinPane(emit))
}

// Flush emits every remaining pane at end of input.
func (s *joinState) Flush(emit func([]byte) error) error {
	return s.state.FireAll(joinPane(emit))
}

// joinPane emits one pane's A-major cross product.
func joinPane(emit func([]byte) error) func(watermark.Pane[joinAcc]) error {
	return func(p watermark.Pane[joinAcc]) error {
		for _, q := range p.Acc.queries {
			for _, r := range p.Acc.ranks {
				if err := emit(FormatJoin(p.Start, []byte(p.Key), q, r)); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// GroupedValueBytes converts one GroupByKey pane value to record bytes.
// The direct runner hands values through in memory as []byte; the
// engine runners round-trip panes through the Grouped coder boundary,
// which decodes values as strings.
func GroupedValueBytes(v any) ([]byte, error) {
	switch rec := v.(type) {
	case []byte:
		return rec, nil
	case string:
		return []byte(rec), nil
	default:
		return nil, fmt.Errorf("queries: grouped value %T is not bytes", v)
	}
}

// JoinPairs emits the joined rows of one fired pane given its window
// start, user key and tagged values in arrival order — the formatting
// step of the Beam translation, fed from a GroupByKey pane.
func JoinPairs(windowStart time.Time, user []byte, tagged []any, emit func([]byte) error) error {
	var acc joinAcc
	for _, v := range tagged {
		rec, err := GroupedValueBytes(v)
		if err != nil {
			return err
		}
		side, payload, err := taggedParts(rec)
		if err != nil {
			return err
		}
		if side == 'A' {
			acc.queries = append(acc.queries, QueryText(payload))
		} else {
			rank, err := ItemRank(payload)
			if err != nil {
				return err
			}
			acc.ranks = append(acc.ranks, rank)
		}
	}
	for _, q := range acc.queries {
		for _, r := range acc.ranks {
			if err := emit(FormatJoin(windowStart, user, q, r)); err != nil {
				return err
			}
		}
	}
	return nil
}

// joinRefAcc mirrors joinAcc for the dataset-derived reference, keeping
// each side entry's input ordinal for latency pairing.
type joinRefAcc struct {
	queries []joinRefQuery
	ranks   []joinRefRank
}

type joinRefQuery struct {
	text []byte
	ord  int
}

type joinRefRank struct {
	rank int64
	ord  int
}

// joinReference derives the expected Join output set from the raw
// (untagged) input dataset: every record contributes its query text to
// side A, and records with an item rank additionally contribute to side
// B — exactly what the two tagged branches of the engine pipelines
// deliver.
type joinReference struct {
	state *watermark.WindowState[joinRefAcc]
}

func newJoinReference() *joinReference {
	a, err := watermark.NewTumblingAssigner(JoinWindow)
	if err != nil {
		panic(err)
	}
	state, err := watermark.NewWindowState[joinRefAcc](a, nil)
	if err != nil {
		panic(err)
	}
	return &joinReference{state: state}
}

func (r *joinReference) add(rec []byte, ordinal int) error {
	et, err := EventTime(rec)
	if err != nil {
		return err
	}
	user := string(aol.FirstColumn(rec))
	q := append([]byte(nil), QueryText(rec)...)
	r.state.Upsert(et, user, func(a *joinRefAcc) {
		a.queries = append(a.queries, joinRefQuery{text: q, ord: ordinal})
	})
	if HasItemRank(rec) {
		rank, err := ItemRank(rec)
		if err != nil {
			return err
		}
		r.state.Upsert(et, user, func(a *joinRefAcc) {
			a.ranks = append(a.ranks, joinRefRank{rank: rank, ord: ordinal})
		})
	}
	return nil
}

// groups drains the state into the expected joined rows in firing
// order; each row pairs with the later of its two contributing inputs.
func (r *joinReference) groups() []windowedGroup {
	var out []windowedGroup
	_ = r.state.FireAll(func(p watermark.Pane[joinRefAcc]) error {
		for _, q := range p.Acc.queries {
			for _, b := range p.Acc.ranks {
				out = append(out, windowedGroup{
					payload:   FormatJoin(p.Start, []byte(p.Key), q.text, b.rank),
					lastInput: max(q.ord, b.ord),
				})
			}
		}
		return nil
	})
	return out
}

// ExpectedJoins computes the Join output payloads a dataset must
// produce, in the deterministic pane-firing order (the within-pane pair
// order is the reference's; engines may emit a pane's pairs in a
// different arrival-dependent order, so compare as sorted multisets).
func ExpectedJoins(records [][]byte) ([][]byte, error) {
	return expectedPayloads(newJoinReference(), records)
}
