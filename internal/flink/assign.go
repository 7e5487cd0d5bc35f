package flink

import (
	"fmt"
	"time"

	"beambench/internal/watermark"
)

// EventTimeFn extracts a record's event timestamp from the record
// itself, e.g. a time column of the payload.
type EventTimeFn func(rec []byte) (time.Time, error)

// AssignTimestampsBounded adds the standard bounded-out-of-orderness
// timestamp assigner: each record's event time feeds a
// watermark.Generator with the given bound, and every generator advance
// is emitted downstream as a watermark control event. Place it where
// event time enters the dataflow (after the source); every operator
// between it and the stateful consumers forwards the watermark
// min-over-inputs automatically.
func (ds *DataStream) AssignTimestampsBounded(name string, eventTime EventTimeFn, bound time.Duration) *DataStream {
	if eventTime == nil {
		ds.env.fail(fmt.Errorf("flink: assignTimestamps %q: nil event-time fn", name))
		return ds.AssignTimestamps(name, nil)
	}
	return ds.AssignTimestamps(name, func(ctx OperatorContext, wm WatermarkEmitter) (ProcessFunc, error) {
		gen := watermark.NewGenerator(bound)
		return func(rec []byte, out Collector) error {
			et, err := eventTime(rec)
			if err != nil {
				return fmt.Errorf("flink: %s event time: %w", name, err)
			}
			if err := out.Collect(rec); err != nil {
				return err
			}
			if gen.Observe(et) {
				return wm.EmitWatermark(gen.Current())
			}
			return nil
		}, nil
	})
}
