package queries

import (
	"time"

	"beambench/internal/aol"
	"beambench/internal/watermark"
)

// aggState is the engine-shared windowed-aggregate executable behind
// WindowedCount and SlidingSum: records fold into one numeric
// accumulator per (window, user), and each pane emits one formatted row
// once the propagated watermark passes the window's end. Like joinState
// it is a keyedState, so every engine deploys it through the same
// adapter and the windowed semantics are defined exactly once.
type aggState struct {
	state  *watermark.WindowState[watermark.NumAcc]
	agg    watermark.AggKind
	value  func(rec []byte) (int64, error) // nil counts records
	format func(windowStart time.Time, user []byte, v int64) []byte
}

// newWindowedCountState returns empty WindowedCount state: per-user
// record counts over WindowedCountWindow tumbling windows.
func newWindowedCountState() keyedState {
	a, err := watermark.NewTumblingAssigner(WindowedCountWindow)
	if err != nil {
		panic(err) // constant window size; cannot fail
	}
	return newAggState(a, watermark.AggCount, nil, FormatWindowedCount)
}

// newSlidingSumState returns empty SlidingSum state: per-user item-rank
// sums over the query's sliding windows.
func newSlidingSumState() keyedState {
	return newAggState(slidingSumAssigner(), watermark.AggSum, ItemRank, FormatSlidingSum)
}

func newAggState(a watermark.Assigner, agg watermark.AggKind,
	value func(rec []byte) (int64, error),
	format func(windowStart time.Time, user []byte, v int64) []byte,
) *aggState {
	state, err := watermark.NewWindowState[watermark.NumAcc](a, nil)
	if err != nil {
		panic(err) // non-merging static assigners; cannot fail
	}
	return &aggState{state: state, agg: agg, value: value, format: format}
}

// Process folds one record into every (window, user) pane it belongs to.
func (s *aggState) Process(rec []byte) error {
	et, err := EventTime(rec)
	if err != nil {
		return err
	}
	v := int64(0)
	if s.value != nil {
		if v, err = s.value(rec); err != nil {
			return err
		}
	}
	//beamvet:allow hotalloc pane state keys by string: one key allocation per record, pinned by TestKeyedStateProcessAllocs
	user := string(aol.FirstColumn(rec))
	//beamvet:allow hotalloc the update closure does not escape Upsert (gcflags -m), so it stays on the stack; pinned by TestKeyedStateProcessAllocs
	s.state.Upsert(et, user, func(acc *watermark.NumAcc) { acc.Add(v) })
	return nil
}

// Fire emits every pane the watermark has passed.
func (s *aggState) Fire(w time.Time, emit func([]byte) error) error {
	return s.state.FireReady(w, s.pane(emit))
}

// Flush emits every remaining pane at end of input.
func (s *aggState) Flush(emit func([]byte) error) error {
	return s.state.FireAll(s.pane(emit))
}

// pane emits one fired pane as a formatted row.
func (s *aggState) pane(emit func([]byte) error) func(watermark.Pane[watermark.NumAcc]) error {
	return func(p watermark.Pane[watermark.NumAcc]) error {
		return emit(s.format(p.Start, []byte(p.Key), p.Acc.Result(s.agg)))
	}
}
