package queries

import (
	"fmt"
	"time"

	"beambench/internal/apex"
	"beambench/internal/beam"
	"beambench/internal/broker"
	"beambench/internal/flink"
	"beambench/internal/spark"
)

// Workload names the broker topics a query reads and writes, plus the
// seed for the sample query.
type Workload struct {
	Broker      *broker.Broker
	InputTopic  string
	OutputTopic string
	// Seed drives the deterministic sampling decision.
	Seed uint64
	// Producer configures the output producer of native jobs.
	Producer broker.ProducerConfig
	// InputRecords is the end-of-input contract threaded into every
	// query source: the total record count the input topic will
	// eventually hold. Sources keep consuming until that many records
	// have been appended and drained, so the data sender may still be
	// streaming into the topic when the query starts. 0 degrades the
	// sources to a bounded snapshot of the topic contents at startup.
	InputRecords int64
}

func (w Workload) validate() error {
	if w.Broker == nil {
		return fmt.Errorf("queries: nil broker")
	}
	if w.InputTopic == "" || w.OutputTopic == "" {
		return fmt.Errorf("queries: missing topic names")
	}
	return nil
}

// NativeFlink builds the query as a native Flink job on env, using the
// engine's own DataStream API (the paper's "system API" variant). The
// job is fully chainable: source -> one operator -> sink, as in the
// native execution plan of Figure 12.
func NativeFlink(env *flink.Environment, w Workload, q Query) error {
	if err := w.validate(); err != nil {
		return err
	}
	src := env.AddSource("Custom Source", flink.KafkaSource(w.Broker, w.InputTopic, w.InputRecords))
	var out *flink.DataStream
	switch q {
	case Identity:
		out = src.Map("Identity", func(rec []byte) []byte { return rec })
	case Sample:
		out = src.Filter("Sample", func(rec []byte) bool { return SampleKeep(rec, w.Seed) })
	case Projection:
		out = src.Map("Projection", Project)
	case Grep:
		out = src.Filter("Filter", GrepMatch)
	case WindowedCount:
		// Timestamp assignment stamps watermarks where event time enters
		// the dataflow; KeyBy routes each user's records to one subtask of
		// the windowed aggregate, whose panes fire off the propagated
		// (min-over-senders) watermark and flush at end of input.
		out = src.
			AssignTimestampsBounded("Timestamps/Watermarks", EventTime, WindowedCountBound).
			KeyBy(UserKey).
			ProcessWithWatermark("WindowedCount", flinkKeyed(newWindowedCountState))
	case SlidingSum:
		// Same dataflow as WindowedCount with an overlapping window
		// assigner and a sum aggregate over the item-rank column.
		out = src.
			AssignTimestampsBounded("Timestamps/Watermarks", EventTime, SlidingSumBound).
			KeyBy(UserKey).
			ProcessWithWatermark("SlidingSum", flinkKeyed(newSlidingSumState))
	case Join:
		// Two branches over the same topic, each tagged and timestamped
		// BEFORE the union: assigning after the merge would observe the
		// nondeterministic interleaving of two racing source chains as
		// unbounded disorder. The union forwards the minimum watermark
		// over its inputs; the keyed join operator fires panes off that
		// propagated minimum and flushes at end of input.
		srcB := env.AddSource("Custom Source B", flink.KafkaSource(w.Broker, w.InputTopic, w.InputRecords))
		a := src.
			Map("TagQueries", TagSideA).
			AssignTimestampsBounded("Timestamps/Watermarks A", TaggedEventTime, JoinBound)
		b := srcB.
			Filter("FilterClicks", HasItemRank).
			Map("TagClicks", TagSideB).
			AssignTimestampsBounded("Timestamps/Watermarks B", TaggedEventTime, JoinBound)
		out = a.Union("Union", b).
			KeyBy(TaggedUserKey).
			ProcessWithWatermark("Join", flinkKeyed(newJoinState))
	default:
		return fmt.Errorf("queries: unknown query %d", q)
	}
	out.AddSink("Unnamed", flink.KafkaSink(w.Broker, w.OutputTopic, w.Producer))
	return nil
}

// keyedState is the engine-shared stateful executable of the windowed
// queries (aggState for WindowedCount and SlidingSum, joinState for
// Join): Process accumulates a record into its (window, user) panes,
// Fire emits every pane the watermark has passed, and Flush drains the
// rest at end of input. Each engine deploys it through one adapter on
// its generic stateful hook (flinkKeyed, sparkKeyed, apexKeyed), so the
// engines differ only in when they call Fire: per watermark advance in
// Flink and Apex, per micro-batch boundary in Spark.
type keyedState interface {
	Process(rec []byte) error
	Fire(w time.Time, emit func([]byte) error) error
	Flush(emit func([]byte) error) error
}

// flinkKeyed deploys a keyed state behind Flink's watermark-aware
// process hook: one state instance per subtask, panes firing off the
// propagated (min-over-senders) watermark.
func flinkKeyed(newState func() keyedState) flink.WatermarkedProcessFactory {
	return func(flink.OperatorContext) (flink.ProcessFunc, flink.WatermarkFunc, flink.FlushFunc, error) {
		s := newState()
		process := func(rec []byte, _ flink.Collector) error { return s.Process(rec) }
		onWatermark := func(wm time.Time, out flink.Collector) error { return s.Fire(wm, out.Collect) }
		flush := func(out flink.Collector) error { return s.Flush(out.Collect) }
		return process, onWatermark, flush, nil
	}
}

// NativeSpark builds the query as a native Spark Streaming application
// on ssc using the DStream API. With a single input partition the
// native implementation does not repartition (parallelism has no
// observable effect, matching the paper's native Spark results).
func NativeSpark(ssc *spark.StreamingContext, w Workload, q Query) error {
	if err := w.validate(); err != nil {
		return err
	}
	src := ssc.KafkaDirectStream(w.Broker, w.InputTopic, w.InputRecords)
	var out *spark.DStream
	switch q {
	case Identity:
		out = src
	case Sample:
		out = src.Filter(func(rec []byte) bool { return SampleKeep(rec, w.Seed) })
	case Projection:
		out = src.Map(Project)
	case Grep:
		out = src.Filter(GrepMatch)
	case WindowedCount:
		// The micro-batch state path: the assigner stage stamps the
		// lineage watermark from the records it admits, and the
		// per-(window, user) counts persist across batches, fire at batch
		// boundaries once the propagated watermark passes a window's end,
		// and flush when the input drains. The single-partition input
		// topic keeps every key in one partition, so no keyed repartition
		// is needed natively.
		// Named after the DStream operation (the SaveToKafka output op
		// already carries the query name; distinct labels keep the
		// per-stage throughput report unambiguous).
		out = src.
			AssignTimestampsBounded(EventTime, WindowedCountBound).
			Stateful("ReduceByKeyAndWindow", sparkKeyed(newWindowedCountState))
	case SlidingSum:
		out = src.
			AssignTimestampsBounded(EventTime, SlidingSumBound).
			Stateful("AggByKeyAndWindow", sparkKeyed(newSlidingSumState))
	case Join:
		// Each branch tags and timestamps before the union; the union
		// concatenates the branch partitions, so a keyed repartition
		// reunites each user's tagged records in one partition of the
		// stateful join stage. The stage's watermark is the lineage
		// minimum over both branch assigners.
		srcB := ssc.KafkaDirectStream(w.Broker, w.InputTopic, w.InputRecords)
		a := src.
			Map(TagSideA).
			AssignTimestampsBounded(TaggedEventTime, JoinBound)
		b := srcB.
			Filter(HasItemRank).
			Map(TagSideB).
			AssignTimestampsBounded(TaggedEventTime, JoinBound)
		out = a.Union(b).
			RepartitionByKey(ssc.DefaultParallelism(), TaggedUserKey).
			Stateful("Join", sparkKeyed(newJoinState))
	default:
		return fmt.Errorf("queries: unknown query %d", q)
	}
	out.SaveToKafka(q.String(), w.Broker, w.OutputTopic, w.Producer)
	return nil
}

// sparkKeyed deploys a keyed state behind Spark's micro-batch state
// hook: one state instance per stage partition, panes firing at batch
// boundaries off the propagated lineage watermark (TaskContext.Watermark)
// and flushing when the input drains.
func sparkKeyed(newState func() keyedState) spark.StatefulFactory {
	return func(int) (spark.StatefulProcessor, error) {
		return &sparkKeyedProcessor{state: newState()}, nil
	}
}

type sparkKeyedProcessor struct {
	state keyedState
}

func (p *sparkKeyedProcessor) Process(_ spark.TaskContext, rec []byte, _ func([]byte)) error {
	return p.state.Process(rec)
}

func (p *sparkKeyedProcessor) EndBatch(task spark.TaskContext, emit func([]byte)) error {
	return p.state.Fire(task.Watermark, func(rec []byte) error { emit(rec); return nil })
}

func (p *sparkKeyedProcessor) EndStream(_ spark.TaskContext, emit func([]byte)) error {
	return p.state.Flush(func(rec []byte) error { emit(rec); return nil })
}

// NativeApex builds the query as a native Apex application DAG:
// Kafka input -> one operator -> Kafka output, all streams windowed
// (batched buffer-server publishing) as the engine defaults.
func NativeApex(w Workload, q Query) (*apex.Application, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	if q == Join {
		return nativeApexJoin(w), nil
	}
	app := apex.NewApplication(q.String())
	app.AddInput("kafkaInput", apex.KafkaInput(w.Broker, w.InputTopic, w.InputRecords))
	switch q {
	case Identity:
		app.AddOperator("identity", apex.PassThrough())
	case Sample:
		seed := w.Seed
		app.AddOperator("sample", apex.FilterOp(func(rec []byte) bool { return SampleKeep(rec, seed) }))
	case Projection:
		app.AddOperator("projection", apex.MapOp(Project))
	case Grep:
		app.AddOperator("grep", apex.FilterOp(GrepMatch))
	case WindowedCount:
		app.AddOperator("windowedCount", apexKeyed(newWindowedCountState))
	case SlidingSum:
		app.AddOperator("slidingSum", apexKeyed(newSlidingSumState))
	default:
		return nil, fmt.Errorf("queries: unknown query %d", q)
	}
	opName := map[Query]string{
		Identity: "identity", Sample: "sample", Projection: "projection",
		Grep: "grep", WindowedCount: "windowedCount", SlidingSum: "slidingSum",
	}[q]
	app.AddOutput("kafkaOutput", apex.KafkaOutput(w.Broker, w.OutputTopic, w.Producer))
	if q.Stateful() {
		// The assigner stamps the DAG's watermark where event time enters
		// it; keyed partitioning routes every user's records to one
		// partition of the stateful operator, whose panes fire off the
		// propagated (min-over-senders) watermark and drain at end of
		// stream.
		bound := WindowedCountBound
		if q == SlidingSum {
			bound = SlidingSumBound
		}
		app.AddOperator("assignTimestamps", apex.AssignTimestamps(EventTime, bound))
		app.AddStream("input", "kafkaInput", "assignTimestamps")
		app.AddStream("assigned", "assignTimestamps", opName)
		app.SetStreamKeyed("assigned", UserKey)
	} else {
		app.AddStream("input", "kafkaInput", opName)
	}
	app.AddStream("output", opName, "kafkaOutput")
	return app, nil
}

// nativeApexJoin builds the two-input join DAG: each branch reads the
// topic, tags and timestamps its records, and both assigned streams
// converge keyed on the join operator — whose combined input watermark
// is the minimum over the senders of BOTH streams, so no pane fires
// before both branches have passed it.
func nativeApexJoin(w Workload) *apex.Application {
	app := apex.NewApplication(Join.String())
	app.AddInput("kafkaInputA", apex.KafkaInput(w.Broker, w.InputTopic, w.InputRecords))
	app.AddInput("kafkaInputB", apex.KafkaInput(w.Broker, w.InputTopic, w.InputRecords))
	app.AddOperator("tagQueries", apex.MapOp(TagSideA))
	app.AddOperator("tagClicks", apex.FlatMapOp(func(t []byte, emit func([]byte) error) error {
		if !HasItemRank(t) {
			return nil
		}
		return emit(TagSideB(t))
	}))
	app.AddOperator("assignTimestampsA", apex.AssignTimestamps(TaggedEventTime, JoinBound))
	app.AddOperator("assignTimestampsB", apex.AssignTimestamps(TaggedEventTime, JoinBound))
	app.AddOperator("join", apexKeyed(newJoinState))
	app.AddOutput("kafkaOutput", apex.KafkaOutput(w.Broker, w.OutputTopic, w.Producer))
	// The output topic has one partition, so the sink is pinned to one
	// container — which also keeps the eight-operator DAG inside the
	// default cluster's vcore budget at parallelism 2.
	app.SetOperatorPartitions("kafkaOutput", 1)
	app.AddStream("inputA", "kafkaInputA", "tagQueries")
	app.AddStream("inputB", "kafkaInputB", "tagClicks")
	app.AddStream("taggedA", "tagQueries", "assignTimestampsA")
	app.AddStream("taggedB", "tagClicks", "assignTimestampsB")
	app.AddStream("assignedA", "assignTimestampsA", "join")
	app.AddStream("assignedB", "assignTimestampsB", "join")
	app.SetStreamKeyed("assignedA", TaggedUserKey)
	app.SetStreamKeyed("assignedB", TaggedUserKey)
	app.AddStream("output", "join", "kafkaOutput")
	return app
}

// apexKeyed deploys a keyed state behind Apex's watermark-aware
// operator hooks: one state instance per partition, panes firing off
// the combined (min-over-senders) input watermark and draining when the
// input stream ends.
func apexKeyed(newState func() keyedState) apex.GenericFactory {
	return func(apex.OperatorContext) (apex.GenericOperator, error) {
		return &apexKeyedOperator{state: newState()}, nil
	}
}

type apexKeyedOperator struct {
	state keyedState
}

func (o *apexKeyedOperator) Process(t []byte, _ func([]byte) error) error {
	return o.state.Process(t)
}

// OnWatermark implements apex.WatermarkAware.
func (o *apexKeyedOperator) OnWatermark(w time.Time, emit func([]byte) error) error {
	return o.state.Fire(w, emit)
}

// EndStream implements apex.StreamFlusher.
func (o *apexKeyedOperator) EndStream(emit func([]byte) error) error {
	return o.state.Flush(emit)
}

func (o *apexKeyedOperator) Teardown() error { return nil }

// BeamPipeline builds the query once against the abstraction layer; the
// same pipeline object runs on every runner. The shape matches the
// paper's Beam implementations: KafkaIO.read().withoutMetadata() ->
// Values.create() -> query ParDo -> KafkaIO.write() (Figure 13).
func BeamPipeline(w Workload, q Query) (*beam.Pipeline, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	p := beam.NewPipeline()
	vals := beam.Values(p, beam.WithoutMetadata(p, beam.KafkaRead(p, w.Broker, w.InputTopic)))
	var out beam.PCollection
	switch q {
	case Identity:
		out = beam.ParDo(p, "Identity", beam.DoFnFunc(func(ctx beam.Context, elem any, emit beam.Emitter) error {
			return emit(elem)
		}), vals)
	case Sample:
		seed := w.Seed
		out = beam.Filter(p, "Sample", func(elem any) (bool, error) {
			rec, ok := elem.([]byte)
			if !ok {
				return false, fmt.Errorf("queries: sample element %T is not []byte", elem)
			}
			return SampleKeep(rec, seed), nil
		}, vals)
	case Projection:
		out = beam.MapElements(p, "Projection", func(elem any) (any, error) {
			rec, ok := elem.([]byte)
			if !ok {
				return nil, fmt.Errorf("queries: projection element %T is not []byte", elem)
			}
			return Project(rec), nil
		}, vals)
	case Grep:
		out = beam.Filter(p, "Grep", func(elem any) (bool, error) {
			rec, ok := elem.([]byte)
			if !ok {
				return false, fmt.Errorf("queries: grep element %T is not []byte", elem)
			}
			return GrepMatch(rec), nil
		}, vals)
	case WindowedCount:
		// WindowInto(FixedWindows + event-time extractor) -> WithKeys
		// (user ID) -> GroupByKey -> count-and-format. Every runner
		// completes the GroupByKey translation: keyed routing plus the
		// shared watermark-driven pane firing (graphx.GBKState).
		ws := beam.WindowingStrategy{Fn: beam.FixedWindows{Size: WindowedCountWindow}}.
			WithEventTime(EventTimeOf, WindowedCountBound)
		windowed := beam.WindowInto(p, ws, vals)
		keyed := beam.WithKeys(p, "WithKeys", userKeyOf(UserKey), windowed)
		grouped := beam.GroupByKey(p, keyed)
		out = beam.MapElements(p, "WindowedCount", groupedPaneFn(func(start time.Time, user string, values []any) (any, error) {
			return FormatWindowedCount(start, []byte(user), int64(len(values))), nil
		}), grouped, beam.WithCoder(beam.BytesCoder{}))
	case SlidingSum:
		// The sliding assigner replicates each record into every
		// overlapping window at WindowInto; the rest of the shape is
		// WindowedCount's, with a sum over the item-rank column in the
		// pane formatter.
		ws := beam.WindowingStrategy{Fn: beam.SlidingWindows{Size: SlidingSumWindow, Slide: SlidingSumSlide}}.
			WithEventTime(EventTimeOf, SlidingSumBound)
		windowed := beam.WindowInto(p, ws, vals)
		keyed := beam.WithKeys(p, "WithKeys", userKeyOf(UserKey), windowed)
		grouped := beam.GroupByKey(p, keyed)
		out = beam.MapElements(p, "SlidingSum", groupedPaneFn(func(start time.Time, user string, values []any) (any, error) {
			var sum int64
			for _, v := range values {
				rec, err := GroupedValueBytes(v)
				if err != nil {
					return nil, err
				}
				rank, err := ItemRank(rec)
				if err != nil {
					return nil, err
				}
				sum += rank
			}
			return FormatSlidingSum(start, []byte(user), sum), nil
		}), grouped, beam.WithCoder(beam.BytesCoder{}))
	case Join:
		// Two reads of the topic, tagged per branch and windowed BEFORE
		// the Flatten (the Beam model requires identical windowing across
		// Flatten inputs, and per-branch timestamping keeps the racing
		// branches' disorder bounded). The GroupByKey pane then holds both
		// sides' tagged records of one (window, user), and the formatting
		// ParDo emits the inner-join cross product.
		valsB := beam.Values(p, beam.WithoutMetadata(p, beam.KafkaRead(p, w.Broker, w.InputTopic)))
		a := beam.MapElements(p, "TagQueries", func(elem any) (any, error) {
			rec, ok := elem.([]byte)
			if !ok {
				return nil, fmt.Errorf("queries: join element %T is not []byte", elem)
			}
			return TagSideA(rec), nil
		}, vals, beam.WithCoder(beam.BytesCoder{}))
		clicks := beam.Filter(p, "FilterClicks", func(elem any) (bool, error) {
			rec, ok := elem.([]byte)
			if !ok {
				return false, fmt.Errorf("queries: join element %T is not []byte", elem)
			}
			return HasItemRank(rec), nil
		}, valsB)
		b := beam.MapElements(p, "TagClicks", func(elem any) (any, error) {
			rec, ok := elem.([]byte)
			if !ok {
				return nil, fmt.Errorf("queries: join element %T is not []byte", elem)
			}
			return TagSideB(rec), nil
		}, clicks, beam.WithCoder(beam.BytesCoder{}))
		ws := beam.WindowingStrategy{Fn: beam.FixedWindows{Size: JoinWindow}}.
			WithEventTime(TaggedEventTimeOf, JoinBound)
		merged := beam.Flatten(p, beam.WindowInto(p, ws, a), beam.WindowInto(p, ws, b))
		keyed := beam.WithKeys(p, "WithKeys", userKeyOf(TaggedUserKey), merged)
		grouped := beam.GroupByKey(p, keyed)
		out = beam.ParDo(p, "Join", beam.DoFnFunc(func(ctx beam.Context, elem any, emit beam.Emitter) error {
			g, ok := elem.(beam.Grouped)
			if !ok {
				return fmt.Errorf("queries: join element %T is not Grouped", elem)
			}
			iw, ok := g.Window.(beam.IntervalWindow)
			if !ok {
				return fmt.Errorf("queries: join pane carries %T, want IntervalWindow", g.Window)
			}
			user, err := beam.KeyString(g.Key)
			if err != nil {
				return err
			}
			return JoinPairs(iw.Start, []byte(user), g.Values, func(row []byte) error {
				return emit(row)
			})
		}), grouped, beam.WithCoder(beam.BytesCoder{}))
	default:
		return nil, fmt.Errorf("queries: unknown query %d", q)
	}
	beam.KafkaWrite(p, w.Broker, w.OutputTopic, out, w.Producer)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// userKeyOf adapts a record-level key extractor to the abstraction
// layer's element-typed WithKeys function, keying by the string form.
func userKeyOf(key func(rec []byte) ([]byte, error)) func(elem any) (any, error) {
	return func(elem any) (any, error) {
		rec, ok := elem.([]byte)
		if !ok {
			return nil, fmt.Errorf("queries: keyed element %T is not []byte", elem)
		}
		user, err := key(rec)
		if err != nil {
			return nil, err
		}
		return string(user), nil
	}
}

// groupedPaneFn adapts a (window start, user, values) pane formatter to
// a MapElements function over GroupByKey panes.
func groupedPaneFn(fn func(start time.Time, user string, values []any) (any, error)) func(elem any) (any, error) {
	return func(elem any) (any, error) {
		g, ok := elem.(beam.Grouped)
		if !ok {
			return nil, fmt.Errorf("queries: windowed element %T is not Grouped", elem)
		}
		iw, ok := g.Window.(beam.IntervalWindow)
		if !ok {
			return nil, fmt.Errorf("queries: windowed pane carries %T, want IntervalWindow", g.Window)
		}
		user, err := beam.KeyString(g.Key)
		if err != nil {
			return nil, err
		}
		return fn(iw.Start, user, g.Values)
	}
}
