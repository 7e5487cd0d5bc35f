// Package direct executes bounded Beam pipelines in memory, in process,
// without an engine. It is the reference for transform semantics: the
// engine runners must agree with it on outputs (differing only in cost),
// and the SDK's own tests run against it.
//
// The runner executes the execution plan produced by the shared
// optimizer (internal/beam/graphx); with fusion enabled a chain of
// ParDos runs as one stage whose intermediate collections are never
// materialized, which is exactly what fusion buys on the engines.
package direct

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"beambench/internal/beam"
	"beambench/internal/beam/graphx"
	"beambench/internal/broker"
	"beambench/internal/obs"
)

// Name is the runner's registry name.
const Name = "direct"

func init() {
	beam.RegisterRunner(Name, Runner{})
}

// Runner implements beam.Runner. The direct runner ignores Parallelism,
// Costs and Sim: it has no engine to charge.
type Runner struct{}

// Run implements beam.Runner.
func (Runner) Run(ctx context.Context, p *beam.Pipeline, opts beam.Options) (beam.Result, error) {
	// Fusion is off by default: the direct runner materializes every
	// collection so tests can inspect intermediates.
	return run(ctx, p, opts.Fusion.Enabled(false), opts.Telemetry, opts.TargetRecords)
}

// Result holds the materialized outputs of a pipeline run.
type Result struct {
	// Collections maps PCollection IDs to their materialized elements
	// in processing order.
	Collections map[int][]any
	// Counts maps stage names to emitted element counts.
	Counts map[string]int64

	operators int
}

// Elements returns the materialized elements of a collection. Inside a
// fused stage only the stage's final output is materialized.
func (r *Result) Elements(col beam.PCollection) []any {
	return r.Collections[col.ID()]
}

// OperatorCount implements beam.Result: the number of executed stages.
func (r *Result) OperatorCount() int { return r.operators }

// Metrics implements beam.Result.
func (r *Result) Metrics() map[string]int64 {
	out := make(map[string]int64, len(r.Counts))
	for k, v := range r.Counts {
		out[k] = v
	}
	return out
}

// windowedValue carries an element with its timestamp and window.
type windowedValue struct {
	value  any
	ts     time.Time
	window beam.Window
}

// Run executes the pipeline to completion and materializes every
// collection (no fusion). KafkaRead consumes the topic's current
// contents as a bounded snapshot; KafkaWrite produces to the broker.
// Use the runner registry with beam.Options.TargetRecords to instead
// block until a known total has been appended to the topic.
func Run(p *beam.Pipeline) (*Result, error) {
	return run(context.Background(), p, false, nil, 0)
}

func run(ctx context.Context, p *beam.Pipeline, fused bool, tel *obs.Run, target int64) (*Result, error) {
	plan, err := graphx.Lower(p, graphx.Options{Fusion: fused})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Collections: make(map[int][]any),
		Counts:      make(map[string]int64),
		operators:   plan.OperatorCount(),
	}
	data := make(map[int][]windowedValue)
	for _, s := range plan.Stages {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		sp := tel.Span("direct/"+s.Name(), "stage")
		out, err := runStage(ctx, s, data, target)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("direct: stage %q: %w", s.Name(), err)
		}
		if s.Output().Valid() {
			data[s.Output().ID()] = out
			vals := make([]any, len(out))
			for i, wv := range out {
				vals[i] = wv.value
			}
			res.Collections[s.Output().ID()] = vals
			res.Counts[s.Name()] += int64(len(out))
			tel.Stage(s.Name()).Mark(int64(len(out)))
		} else if len(s.Transforms[0].Inputs) > 0 {
			// Sinks have no output collection; their throughput is the
			// records they consumed.
			tel.Stage(s.Name()).Mark(int64(len(data[s.Transforms[0].Inputs[0].ID()])))
		}
	}
	return res, nil
}

func runStage(ctx context.Context, s *graphx.Stage, data map[int][]windowedValue, target int64) ([]windowedValue, error) {
	t := s.Transforms[0]
	switch s.Kind() {
	case beam.KindCreate:
		return runCreate(t)
	case beam.KindParDo:
		return runParDo(s, data)
	case beam.KindFlatten:
		var out []windowedValue
		for _, in := range t.Inputs {
			out = append(out, data[in.ID()]...)
		}
		return out, nil
	case beam.KindWindowInto:
		return runWindowInto(t, data)
	case beam.KindGroupByKey:
		return runGBK(t, data)
	case beam.KindKafkaRead:
		return runKafkaRead(ctx, t, target)
	case beam.KindKafkaWrite:
		return nil, runKafkaWrite(t, data)
	default:
		return nil, fmt.Errorf("%w: kind %v", beam.ErrUnsupported, s.Kind())
	}
}

func runCreate(t *beam.Transform) ([]windowedValue, error) {
	values, ok := t.Config.([]any)
	if !ok {
		return nil, errors.New("malformed Create config")
	}
	out := make([]windowedValue, len(values))
	for i, v := range values {
		out[i] = windowedValue{value: v, ts: time.Unix(0, 0).UTC(), window: beam.GlobalWindow{}}
	}
	return out, nil
}

// runParDo executes a ParDo stage; for a fused stage the composed fn
// runs the whole chain per element, in memory.
func runParDo(s *graphx.Stage, data map[int][]windowedValue) ([]windowedValue, error) {
	fn := s.Fn()
	if setup, ok := fn.(beam.Setupper); ok {
		if err := setup.Setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	var out []windowedValue
	for _, wv := range data[s.Inputs()[0].ID()] {
		ctx := beam.Context{Timestamp: wv.ts, Window: wv.window}
		err := fn.ProcessElement(ctx, wv.value, func(elem any) error {
			out = append(out, windowedValue{value: elem, ts: wv.ts, window: wv.window})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if td, ok := fn.(beam.Teardowner); ok {
		if err := td.Teardown(); err != nil {
			return nil, fmt.Errorf("teardown: %w", err)
		}
	}
	return out, nil
}

func runWindowInto(t *beam.Transform, data map[int][]windowedValue) ([]windowedValue, error) {
	ws, ok := t.Config.(beam.WindowingStrategy)
	if !ok {
		return nil, errors.New("malformed WindowInto config")
	}
	var out []windowedValue
	for _, wv := range data[t.Inputs[0].ID()] {
		ts := wv.ts
		// An element-derived event time re-stamps the element before
		// window assignment — the deterministic path the engine runners
		// require, honored here too so outputs agree.
		if ws.EventTime != nil {
			et, err := ws.EventTime(wv.value)
			if err != nil {
				return nil, fmt.Errorf("event time: %w", err)
			}
			ts = et
		}
		for _, w := range ws.Fn.AssignWindows(ts) {
			out = append(out, windowedValue{value: wv.value, ts: ts, window: w})
		}
	}
	return out, nil
}

func runGBK(t *beam.Transform, data map[int][]windowedValue) ([]windowedValue, error) {
	in := data[t.Inputs[0].ID()]
	trigger := t.Inputs[0].Windowing().Trigger
	fireAfter := 0
	if trigger != nil {
		fireAfter = trigger.FireAfter()
	}

	type groupKey struct {
		window string
		key    string
	}
	groups := make(map[groupKey]*windowedValue)
	var order []groupKey
	var out []windowedValue

	for _, wv := range in {
		kv, ok := wv.value.(beam.KV)
		if !ok {
			return nil, fmt.Errorf("GroupByKey input %T is not a KV", wv.value)
		}
		ks, err := beam.KeyString(kv.Key)
		if err != nil {
			return nil, err
		}
		gk := groupKey{window: wv.window.Key(), key: ks}
		g, ok := groups[gk]
		if !ok {
			g = &windowedValue{
				value:  beam.Grouped{Key: kv.Key, Window: wv.window},
				ts:     wv.window.MaxTimestamp(),
				window: wv.window,
			}
			groups[gk] = g
			order = append(order, gk)
		}
		grouped := g.value.(beam.Grouped)
		grouped.Values = append(grouped.Values, kv.Value)
		g.value = grouped
		// Count-based trigger pane: fire and reset this key's values.
		if fireAfter > 0 && len(grouped.Values) >= fireAfter {
			out = append(out, *g)
			grouped.Values = nil
			g.value = grouped
		}
	}
	// Final panes at end of input: ascending window time, keys in
	// first-seen order within each window — the same deterministic pane
	// order the engines' watermark-driven firing produces, so engine
	// outputs can be compared against this runner record for record.
	// (A stable sort on the window bound preserves first-seen order for
	// panes of one window, and is a no-op for all-global grouping.)
	sort.SliceStable(order, func(i, j int) bool {
		return groups[order[i]].window.MaxTimestamp().Before(groups[order[j]].window.MaxTimestamp())
	})
	for _, gk := range order {
		g := groups[gk]
		if grouped := g.value.(beam.Grouped); len(grouped.Values) > 0 {
			out = append(out, *g)
		}
	}
	return out, nil
}

// _readIdlePoll is how long the KafkaRead stage waits for new data
// before re-checking whether a target-bounded topic is complete.
const _readIdlePoll = 20 * time.Millisecond

// runKafkaRead consumes the topic. With target > 0 it blocks — polling
// via PollWait — until target records have been appended in total (the
// harness contract for both preloaded and concurrently filling topics);
// with target <= 0 it degrades to a bounded snapshot of the topic's
// current contents. The blocking loop honors ctx, so a cancelled run
// stops waiting for records that may never arrive.
func runKafkaRead(ctx context.Context, t *beam.Transform, target int64) ([]windowedValue, error) {
	cfg, ok := t.Config.(beam.KafkaReadConfig)
	if !ok {
		return nil, errors.New("malformed KafkaRead config")
	}
	parts, err := cfg.Broker.Partitions(cfg.Topic)
	if err != nil {
		return nil, err
	}
	consumer, err := cfg.Broker.NewConsumer(broker.ConsumerConfig{MaxPollRecords: 10_000})
	if err != nil {
		return nil, err
	}
	assigned := make([]int, parts)
	for p := range parts {
		if err := consumer.Assign(cfg.Topic, p, 0); err != nil {
			return nil, err
		}
		assigned[p] = p
	}
	eoi, err := broker.NewEndOfInput(cfg.Broker, cfg.Topic, target, assigned)
	if err != nil {
		return nil, err
	}
	var out []windowedValue
	for !eoi.Drained() {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		recs, err := consumer.PollWait(_readIdlePoll)
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			if !eoi.Admit(r) {
				continue // appended after the bounded snapshot
			}
			out = append(out, windowedValue{
				value: beam.KafkaRecord{
					Topic:     r.Topic,
					Partition: r.Partition,
					Offset:    r.Offset,
					Timestamp: r.Timestamp,
					Key:       r.Key,
					Value:     r.Value,
				},
				ts:     r.Timestamp,
				window: beam.GlobalWindow{},
			})
		}
	}
	return out, nil
}

func runKafkaWrite(t *beam.Transform, data map[int][]windowedValue) error {
	cfg, ok := t.Config.(beam.KafkaWriteConfig)
	if !ok {
		return errors.New("malformed KafkaWrite config")
	}
	producer, err := cfg.Broker.NewProducer(cfg.Producer)
	if err != nil {
		return err
	}
	for _, wv := range data[t.Inputs[0].ID()] {
		b, ok := wv.value.([]byte)
		if !ok {
			return fmt.Errorf("KafkaWrite element %T is not []byte", wv.value)
		}
		if err := producer.Send(cfg.Topic, nil, b); err != nil {
			return err
		}
	}
	return producer.Close()
}
