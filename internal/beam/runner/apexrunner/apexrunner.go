// Package apexrunner translates Beam pipelines into applications on the
// Apex engine simulator. Its translation choices reproduce the paper's
// most extreme result (Hesse et al., ICDCS 2019, Figure 11: slowdowns of
// 32-58x for output-heavy queries but ~1x for grep):
//
//   - By default the ParDo chain is fused into a single Apex operator
//     (an executable stage deployed with container-local stream
//     locality) by the shared fusion pass (internal/beam/graphx), so the
//     *input* path performs like a native Apex job — elements pass
//     between fused DoFns in memory without coder round trips. This is
//     why the paper measures Beam-on-Apex grep on par with native Apex
//     (sf 0.91) while Beam-on-Flink pays for every one of its unchained
//     operator boundaries. beam.FusionOff disables the pass, deploying
//     one operator per ParDo with a coder boundary at each hop, so the
//     unfused abstraction cost is measurable on Apex too.
//   - The *output* path is pathological in both modes: the stream into
//     the Kafka output operator publishes per tuple through the buffer
//     server, and the output operator writes synchronously — one produce
//     request per record (producer batch size 1) plus per-record KafkaIO
//     write bookkeeping. The cost therefore scales with output volume:
//     catastrophic for identity/projection (100% output), roughly half
//     for sample (40%), negligible for grep (0.3%).
//   - The output operator is pinned to a single partition: the output
//     topic has one partition, so synchronous writes cannot be
//     parallelized away — raising the paper-observed effect that higher
//     parallelism does not help Beam-on-Apex (Figure 6: 237.5s at P1 vs
//     241.0s at P2).
package apexrunner

import (
	"context"
	"errors"
	"fmt"
	"time"

	"beambench/internal/apex"
	"beambench/internal/beam"
	"beambench/internal/beam/graphx"
	"beambench/internal/obs"
	"beambench/internal/simcost"
	"beambench/internal/yarn"
)

// Name is the runner's registry name.
const Name = "apex"

func init() {
	beam.RegisterRunner(Name, Runner{})
}

// ErrUnsupported marks transforms and shapes this runner cannot
// translate. It wraps the shared beam.ErrUnsupported sentinel, so
// callers can match capability gaps without naming the runner.
var ErrUnsupported = fmt.Errorf("apexrunner: %w", beam.ErrUnsupported)

// Operator names used in the translated DAG.
const (
	// NameRead is the Kafka input operator.
	NameRead = "KafkaIO.Read"
	// NameStage is the fused ParDo chain (Beam executable stage).
	NameStage = "ExecutableStage"
	// NameWrite is the Kafka output operator.
	NameWrite = "KafkaIO.Write"
)

// Config parameterizes a pipeline execution.
type Config struct {
	// Cluster is the YARN cluster to deploy on.
	Cluster *yarn.Cluster
	// Parallelism is the operator partition count, configured through
	// YARN vcores plus a DAG attribute as in the paper. Defaults to 1.
	Parallelism int
	// Costs is the latency model shared with the engine.
	Costs simcost.Costs
	// Sim scales the cost model; nil charges nothing.
	Sim *simcost.Simulator
	// Fusion selects the translation mode. The Apex runner's default is
	// fused — the executable-stage deployment the paper measures.
	Fusion beam.FusionMode
	// Telemetry, when non-nil, receives per-operator throughput, spans
	// and watermark gauges from the deployed application. Nil disables
	// all of it.
	Telemetry *obs.Run
	// TargetRecords bounds every KafkaRead by the total record count the
	// topic will eventually hold (see beam.Options.TargetRecords); 0
	// snapshots the topic contents at partition setup.
	TargetRecords int64
}

// Runner implements beam.Runner: it builds a fresh YARN cluster from
// the options, launches the application and tears the cluster down.
type Runner struct{}

// Run implements beam.Runner.
func (Runner) Run(ctx context.Context, p *beam.Pipeline, opts beam.Options) (beam.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cluster, err := yarn.NewCluster(yarn.ClusterConfig{})
	if err != nil {
		return nil, err
	}
	cluster.Start()
	defer func() { cluster.Stop() }()
	cfg := Config{
		Cluster:       cluster,
		Parallelism:   opts.EffectiveParallelism(),
		Costs:         opts.EffectiveCosts(),
		Sim:           opts.Sim,
		Fusion:        opts.Fusion,
		Telemetry:     opts.Telemetry,
		TargetRecords: opts.TargetRecords,
	}
	// Unfused multi-source pipelines can translate to more operator
	// partitions than the default cluster's vcores. The runner owns this
	// ephemeral cluster, so it provisions enough node managers for the
	// translated application — the harness analog of requesting a large
	// enough YARN queue.
	app, _, err := Translate(p, cfg)
	if err != nil {
		return nil, err
	}
	// maxProvisionedVCores bounds the ephemeral cluster: enough headroom
	// for any translated DAG at benchmark parallelisms, while an absurd
	// parallelism still fails fast inside YARN instead of spinning up an
	// absurd simulated cluster.
	const maxProvisionedVCores = 64
	if need := app.RequiredVCores(cfg.Parallelism); need > cluster.TotalVCores() && need <= maxProvisionedVCores {
		perNode := 8
		bigger, err := yarn.NewCluster(yarn.ClusterConfig{
			NodeManagers: (need + perNode - 1) / perNode,
		})
		if err != nil {
			return nil, err
		}
		cluster.Stop()
		cluster = bigger
		cfg.Cluster = bigger
		cluster.Start()
	}
	res, err := Run(p, cfg)
	if err != nil {
		return nil, err
	}
	return &result{app: res}, nil
}

// result adapts an apex.AppResult to beam.Result.
type result struct {
	app *apex.AppResult
}

func (r *result) Elements(beam.PCollection) []any { return nil }

func (r *result) OperatorCount() int { return len(r.app.Operators) }

func (r *result) Metrics() map[string]int64 {
	out := make(map[string]int64, len(r.app.Operators))
	for _, o := range r.app.Operators {
		out[o.Name] += o.TuplesOut
	}
	return out
}

// Run translates and executes the pipeline, blocking until completion.
func Run(p *beam.Pipeline, cfg Config) (*apex.AppResult, error) {
	app, launch, err := Translate(p, cfg)
	if err != nil {
		return nil, err
	}
	stram, err := apex.Launch(cfg.Cluster, app, launch)
	if err != nil {
		return nil, err
	}
	return stram.Await()
}

// Translate builds the Apex application for a pipeline without running
// it, returning the application and its launch configuration. The
// translation is shape-general: any DAG of sources, ParDo stages (single
// or fused), Flatten merges, WindowInto assigners and keyed GroupByKey
// stages into one Kafka sink, each plan stage one Apex operator wired by
// buffer-server streams.
func Translate(p *beam.Pipeline, cfg Config) (*apex.Application, apex.LaunchConfig, error) {
	var zero apex.LaunchConfig
	if cfg.Cluster == nil {
		return nil, zero, errors.New("apexrunner: nil cluster")
	}
	if cfg.Parallelism == 0 {
		cfg.Parallelism = 1
	}
	if cfg.Parallelism < 0 {
		return nil, zero, fmt.Errorf("apexrunner: negative parallelism %d", cfg.Parallelism)
	}
	plan, err := graphx.Lower(p, graphx.Options{Fusion: cfg.Fusion.Enabled(true)})
	if err != nil {
		return nil, zero, err
	}

	// sinkInput marks the collection feeding the KafkaWrite: the stage
	// producing it serializes for the synchronous sink on exit, so it
	// cannot also feed another stage (the exits differ).
	sinkInput := -1
	var wc beam.KafkaWriteConfig
	writes := 0
	for _, s := range plan.Stages {
		if s.Kind() != beam.KindKafkaWrite {
			continue
		}
		writes++
		c, ok := s.Transforms[0].Config.(beam.KafkaWriteConfig)
		if !ok {
			return nil, zero, errors.New("apexrunner: malformed KafkaWrite config")
		}
		wc = c
		sinkInput = s.Inputs()[0].ID()
	}
	if writes == 0 {
		return nil, zero, fmt.Errorf("%w: pipeline has no KafkaIO.Write sink", ErrUnsupported)
	}
	if writes > 1 {
		return nil, zero, fmt.Errorf("%w: multiple sinks", ErrUnsupported)
	}
	for _, s := range plan.Stages {
		if s.Kind() == beam.KindKafkaWrite {
			continue
		}
		for _, in := range s.Inputs() {
			if in.ID() == sinkInput {
				return nil, zero, fmt.Errorf("%w: collection feeds both the sink and another stage", ErrUnsupported)
			}
		}
	}

	app := apex.NewApplication("beam")
	names := stageNames(plan.Stages)

	// ops maps collection IDs to the operator producing them; sourceOut
	// records the raw source outputs (no coder boundary yet: Kafka
	// payloads to wrap, or Create values under the source coder).
	ops := make(map[int]string)
	sourceOut := make(map[int]entrySpec)
	streamN := 0
	addStream := func(from, to string) {
		app.AddStream(fmt.Sprintf("stream%d", streamN), from, to)
		streamN++
	}
	// entryFor resolves a stage's entry spec: wrap/decode a raw source
	// output, or decode the upstream operator boundary coder.
	entryFor := func(col beam.PCollection) (entrySpec, error) {
		if e, ok := sourceOut[col.ID()]; ok {
			return e, nil
		}
		if _, ok := ops[col.ID()]; !ok {
			return entrySpec{}, fmt.Errorf("apexrunner: stage consumes untranslated collection")
		}
		return entrySpec{decode: col.Coder()}, nil
	}

	for i, s := range plan.Stages {
		t := s.Transforms[0]
		switch s.Kind() {
		case beam.KindKafkaRead:
			rc, ok := t.Config.(beam.KafkaReadConfig)
			if !ok {
				return nil, zero, errors.New("apexrunner: malformed KafkaRead config")
			}
			app.AddInput(names[i], apex.KafkaInput(rc.Broker, rc.Topic, cfg.TargetRecords))
			ops[t.Output.ID()] = names[i]
			sourceOut[t.Output.ID()] = entrySpec{wrapKafka: true, kafkaTopic: rc.Topic}

		case beam.KindCreate:
			values, ok := t.Config.([]any)
			if !ok {
				return nil, zero, errors.New("apexrunner: malformed Create config")
			}
			encoded, err := encodeAll(values, s.Output().Coder())
			if err != nil {
				return nil, zero, fmt.Errorf("apexrunner: Create: %w", err)
			}
			app.AddInput(names[i], apex.SliceInput(encoded))
			ops[t.Output.ID()] = names[i]
			sourceOut[t.Output.ID()] = entrySpec{decode: s.Output().Coder()}

		case beam.KindParDo:
			entry, err := entryFor(s.Inputs()[0])
			if err != nil {
				return nil, zero, err
			}
			exit := exitSpec{encode: s.Output().Coder()}
			if s.Output().ID() == sinkInput {
				exit = exitSpec{toSink: true}
			}
			app.AddOperator(names[i], stageOp(names[i], s.Fn(), entry, exit, cfg.Costs))
			addStream(ops[s.Inputs()[0].ID()], names[i])
			ops[s.Output().ID()] = names[i]

		case beam.KindFlatten:
			// Flatten is the engine's merge: every input stream feeds one
			// forwarding operator port, and the runtime holds the
			// operator's output watermark at the minimum over all inputs.
			// Tuples pass through encoded, so a raw source output cannot
			// be flattened directly (its payloads carry no coder).
			if s.Output().ID() == sinkInput {
				return nil, zero, fmt.Errorf("%w: Flatten adjacent to sink", ErrUnsupported)
			}
			app.AddOperator(names[i], forwardOp(cfg.Costs))
			for _, in := range s.Inputs() {
				if _, raw := sourceOut[in.ID()]; raw {
					return nil, zero, fmt.Errorf("%w: Flatten directly from a source", ErrUnsupported)
				}
				if _, ok := ops[in.ID()]; !ok {
					return nil, zero, errors.New("apexrunner: Flatten consumes untranslated collection")
				}
				addStream(ops[in.ID()], names[i])
			}
			ops[s.Output().ID()] = names[i]

		case beam.KindWindowInto:
			ws, ok := t.Config.(beam.WindowingStrategy)
			if !ok {
				return nil, zero, errors.New("apexrunner: malformed WindowInto config")
			}
			if _, raw := sourceOut[s.Inputs()[0].ID()]; raw || s.Output().ID() == sinkInput {
				return nil, zero, fmt.Errorf("%w: WindowInto adjacent to source or sink", ErrUnsupported)
			}
			if _, ok := ops[s.Inputs()[0].ID()]; !ok {
				return nil, zero, errors.New("apexrunner: WindowInto consumes untranslated collection")
			}
			if ws.IsGlobal() {
				// Global re-windowing carries only strategy metadata
				// (consumed by the downstream GroupByKey); at runtime it
				// forwards the encoded records unchanged.
				app.AddOperator(names[i], forwardOp(cfg.Costs))
			} else {
				if ws.EventTime == nil {
					return nil, zero, fmt.Errorf("%w: non-global windowing (%s) without an event-time extractor",
						ErrUnsupported, ws.Fn.Name())
				}
				// Event-time windowing is where event time enters the
				// DAG: the transform becomes the engine's timestamp
				// assigner, stamping watermark control events the runtime
				// threads through every downstream operator
				// (min-over-senders) to the GroupByKey panes. Window
				// assignment itself stays in the strategy metadata the
				// GroupByKey consumes.
				coder := t.Inputs[0].Coder()
				app.AddOperator(names[i], apex.AssignTimestamps(func(tuple []byte) (time.Time, error) {
					elem, err := coder.Decode(tuple)
					if err != nil {
						return time.Time{}, fmt.Errorf("apexrunner: WindowInto decode: %w", err)
					}
					return ws.EventTime(elem)
				}, ws.Bound))
			}
			addStream(ops[s.Inputs()[0].ID()], names[i])
			ops[s.Output().ID()] = names[i]

		case beam.KindGroupByKey:
			kvCoder, ok := t.Inputs[0].Coder().(beam.KVCoder)
			if !ok {
				return nil, zero, fmt.Errorf("%w: GroupByKey over coder %s", ErrUnsupported, t.Inputs[0].Coder().Name())
			}
			if _, raw := sourceOut[s.Inputs()[0].ID()]; raw || s.Output().ID() == sinkInput {
				return nil, zero, fmt.Errorf("%w: GroupByKey adjacent to source or sink", ErrUnsupported)
			}
			if _, ok := ops[s.Inputs()[0].ID()]; !ok {
				return nil, zero, errors.New("apexrunner: GroupByKey consumes untranslated collection")
			}
			// The shared executable generates no watermark of its own:
			// panes fire off the control-event watermark the runtime
			// propagates from the upstream WindowInto assigner, combined
			// min-over-senders at every merge — sound at any parallelism
			// without a conservative fallback.
			gbkCfg := graphx.GBKConfig{
				Windowing: t.Inputs[0].Windowing(),
				Input:     kvCoder,
				Output:    t.Output.Coder(),
				Costs:     cfg.Costs,
				Telemetry: cfg.Telemetry,
			}
			if _, err := graphx.NewGBKState(gbkCfg); err != nil {
				if errors.Is(err, beam.ErrUnsupported) {
					return nil, zero, fmt.Errorf("%w: %v", ErrUnsupported, err)
				}
				return nil, zero, fmt.Errorf("apexrunner: %w", err)
			}
			app.AddOperator(names[i], gbkOp(gbkCfg))
			// Keyed partitioning: the stream into the stateful operator
			// hashes the encoded KV key, so equal keys meet in one
			// partition.
			streamName := fmt.Sprintf("stream%d", streamN)
			addStream(ops[s.Inputs()[0].ID()], names[i])
			app.SetStreamKeyed(streamName, graphx.EncodedKVKey)
			ops[s.Output().ID()] = names[i]

		case beam.KindKafkaWrite:
			// Handled below: the sink is wired after its producer exists.

		default:
			return nil, zero, fmt.Errorf("%w: %v (%s)", ErrUnsupported, s.Kind(), s.Name())
		}
	}

	prev, ok := ops[sinkInput]
	if !ok {
		return nil, zero, errors.New("apexrunner: KafkaWrite consumes untranslated collection")
	}
	if e, raw := sourceOut[sinkInput]; raw {
		// Read straight into write: one forwarding stage preserves the
		// three-operator minimum shape.
		app.AddOperator(NameStage, stageOp(NameStage, nil, e, exitSpec{toSink: true}, cfg.Costs))
		addStream(prev, NameStage)
		prev = NameStage
	}

	// Sink: unbatched synchronous producer, fed by a per-tuple stream,
	// pinned to one partition (single-partition output topic).
	producerCfg := wc.Producer
	producerCfg.BatchSize = 1
	app.AddOutput(NameWrite, apex.KafkaOutput(wc.Broker, wc.Topic, producerCfg))
	app.AddStream("stageToWrite", prev, NameWrite)
	app.SetStreamPerTuple("stageToWrite", true)
	app.SetOperatorPartitions(NameWrite, 1)

	launch := apex.LaunchConfig{
		Parallelism: cfg.Parallelism,
		Costs:       cfg.Costs,
		Sim:         cfg.Sim,
		Telemetry:   cfg.Telemetry,
	}
	return app, launch, nil
}

// stageNames assigns unique operator names: the Kafka read name for
// sources, the canonical fused-stage name for a fused chain, and the
// transform name (deduplicated) otherwise.
func stageNames(stages []*graphx.Stage) []string {
	names := make([]string, len(stages))
	seen := make(map[string]bool)
	for i, s := range stages {
		name := s.Name()
		switch {
		case s.Kind() == beam.KindKafkaRead || s.Kind() == beam.KindCreate:
			name = NameRead
		case s.Fused():
			name = NameStage
		case name == "":
			name = fmt.Sprintf("ParDo%d", i)
		}
		if seen[name] {
			name = fmt.Sprintf("%s#%d", name, i)
		}
		seen[name] = true
		names[i] = name
	}
	return names
}

// entrySpec describes how a stage turns an incoming tuple into an
// element: wrapping a raw broker payload into a KafkaRecord (the first
// stage after a Kafka source) or decoding with the boundary coder.
type entrySpec struct {
	kafkaTopic string
	wrapKafka  bool
	decode     beam.Coder
}

func sourceEntry(sourceIsKafka bool, topic string, createCoder beam.Coder) entrySpec {
	if sourceIsKafka {
		return entrySpec{wrapKafka: true, kafkaTopic: topic}
	}
	return entrySpec{decode: createCoder}
}

// exitSpec describes the stage exit: serializing the payload for the
// synchronous Kafka sink, or encoding for the next operator boundary.
type exitSpec struct {
	toSink bool
	encode beam.Coder
}

// stageOp builds one operator executing a ParDo stage (a single DoFn or
// a fused chain; nil forwards elements unchanged). Fused, elements
// travel between the chained DoFns as in-memory values (container-local
// locality) and only one bundle-dispatch charge applies per record;
// unfused, each operator boundary pays a coder round trip. The exit
// into the sink charges the per-record synchronous write bookkeeping.
func stageOp(name string, fn beam.DoFn, entry entrySpec, exit exitSpec, costs simcost.Costs) apex.GenericFactory {
	return apex.ProcessOp(func(ctx apex.OperatorContext) (func([]byte, func([]byte) error) error, error) {
		if fn != nil {
			if s, ok := fn.(beam.Setupper); ok {
				if err := s.Setup(); err != nil {
					return nil, fmt.Errorf("apexrunner: stage %q setup: %w", name, err)
				}
			}
		}
		bctx := beam.Context{Window: beam.GlobalWindow{}}

		// Compose the stage once per operator instance; tupleEmit is
		// rebound per incoming tuple.
		var tupleEmit func([]byte) error
		out := beam.Emitter(func(v any) error {
			if exit.toSink {
				payload, ok := v.([]byte)
				if !ok {
					return fmt.Errorf("apexrunner: KafkaWrite element %T is not []byte", v)
				}
				ctx.Charge(costs.CoderPerRecord)
				ctx.Charge(costs.ProducerSyncSend)
				return tupleEmit(payload)
			}
			wire, err := exit.encode.Encode(v)
			if err != nil {
				return fmt.Errorf("apexrunner: stage encode: %w", err)
			}
			ctx.Charge(costs.CoderPerRecord)
			return tupleEmit(wire)
		})
		chain := out
		if fn != nil {
			chain = func(v any) error {
				return fn.ProcessElement(bctx, v, out)
			}
		}

		return func(tuple []byte, emit func([]byte) error) error {
			// Stage entry: wrap or decode exactly once. Decoding pays
			// the boundary coder cost, like the other runners' per-
			// operator decode; wrapping a raw Kafka payload is free.
			var elem any
			if entry.wrapKafka {
				elem = beam.KafkaRecord{Topic: entry.kafkaTopic, Value: tuple}
			} else {
				decoded, err := entry.decode.Decode(tuple)
				if err != nil {
					return fmt.Errorf("apexrunner: stage decode: %w", err)
				}
				ctx.Charge(costs.CoderPerRecord)
				elem = decoded
			}
			ctx.Charge(costs.BeamDoFnPerRecord)
			tupleEmit = emit
			return chain(elem)
		}, nil
	})
}

// forwardOp forwards encoded records unchanged, charging only the
// bundle dispatch — the runtime shape of a metadata-only transform
// (WindowInto), matching the other runners' forwarding operators.
func forwardOp(costs simcost.Costs) apex.GenericFactory {
	return apex.ProcessOp(func(ctx apex.OperatorContext) (func([]byte, func([]byte) error) error, error) {
		return func(tuple []byte, emit func([]byte) error) error {
			ctx.Charge(costs.BeamDoFnPerRecord)
			return emit(tuple)
		}, nil
	})
}

// gbkOperator adapts the shared GroupByKey executable to the engine:
// tuples accumulate per (window, key), panes fire as the runtime
// delivers the combined min-over-senders watermark (WatermarkAware), and
// the remaining state drains at end of stream (StreamFlusher).
type gbkOperator struct {
	state *graphx.GBKState
}

func (o *gbkOperator) Process(t []byte, emit func([]byte) error) error {
	return o.state.Process(t, emit)
}

func (o *gbkOperator) OnWatermark(w time.Time, emit func([]byte) error) error {
	return o.state.AdvanceWatermark(w, emit)
}

func (o *gbkOperator) EndStream(emit func([]byte) error) error {
	return o.state.Flush(emit)
}

func (o *gbkOperator) Teardown() error { return nil }

// gbkOp builds the keyed stateful GroupByKey operator, one shared-state
// executable per partition.
func gbkOp(cfg graphx.GBKConfig) apex.GenericFactory {
	return func(ctx apex.OperatorContext) (apex.GenericOperator, error) {
		cfg := cfg
		cfg.Charge = ctx.Charge
		state, err := graphx.NewGBKState(cfg)
		if err != nil {
			return nil, fmt.Errorf("apexrunner: %w", err)
		}
		return &gbkOperator{state: state}, nil
	}
}

func encodeAll(values []any, coder beam.Coder) ([][]byte, error) {
	out := make([][]byte, len(values))
	for i, v := range values {
		b, err := coder.Encode(v)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}
