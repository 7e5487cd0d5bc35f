package beam

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"beambench/internal/obs"
	"beambench/internal/simcost"
)

// ErrUnsupported is the shared sentinel for transforms (or transform
// shapes) a runner cannot translate. Every bundled runner wraps it in
// its own package-level ErrUnsupported, so callers can match a
// capability gap generically — errors.Is(err, beam.ErrUnsupported) —
// without knowing which runner rejected the pipeline. The harness uses
// exactly that to record an unsupported matrix cell as skipped instead
// of aborting the run.
var ErrUnsupported = errors.New("beam: unsupported transform")

// FusionMode selects how a runner translates ParDo chains: as separate
// engine operators with coder boundaries between them (the abstraction
// cost the paper measures), or fused into executable stages by the
// shared optimizer (internal/beam/graphx).
type FusionMode int

const (
	// FusionDefault keeps each runner's paper-faithful translation: the
	// Apex runner fuses the ParDo chain into one executable stage
	// (Hesse et al., Figure 11: Beam-on-Apex grep on par with native),
	// while the Flink and Spark runners emit one engine operator per
	// Beam primitive (Figure 13).
	FusionDefault FusionMode = iota
	// FusionOn forces the shared ParDo-fusion pass on every runner, so
	// the fused translation mode is measurable on engines whose Beam
	// runner does not fuse.
	FusionOn
	// FusionOff forces per-primitive translation on every runner,
	// including Apex, exposing the unfused abstraction cost everywhere.
	FusionOff
)

// String names the mode for flags and labels.
func (m FusionMode) String() string {
	switch m {
	case FusionDefault:
		return "default"
	case FusionOn:
		return "on"
	case FusionOff:
		return "off"
	default:
		return fmt.Sprintf("FusionMode(%d)", int(m))
	}
}

// Enabled resolves the mode against a runner's default translation
// behaviour.
func (m FusionMode) Enabled(runnerDefault bool) bool {
	switch m {
	case FusionOn:
		return true
	case FusionOff:
		return false
	default:
		return runnerDefault
	}
}

// ParseFusionMode parses a -fusion flag value.
func ParseFusionMode(s string) (FusionMode, error) {
	switch s {
	case "", "default":
		return FusionDefault, nil
	case "on", "true", "fused":
		return FusionOn, nil
	case "off", "false", "unfused":
		return FusionOff, nil
	default:
		return 0, fmt.Errorf("beam: unknown fusion mode %q (want default, on or off)", s)
	}
}

// Options is the runner-independent execution configuration. The Kafka
// cluster handles ride on the pipeline itself (KafkaRead/KafkaWrite
// carry their broker); Options carries everything else a runner needs to
// build and drive a fresh engine cluster for the run.
type Options struct {
	// Parallelism is the engine parallelism knob (Flink job parallelism,
	// spark.default.parallelism, Apex operator partitions). Zero means 1.
	Parallelism int
	// Fusion selects the translation mode; see FusionMode.
	Fusion FusionMode
	// Costs calibrates the engine latency model; nil selects
	// simcost.DefaultCosts.
	Costs *simcost.Costs
	// Sim scales modeled latencies into wall-clock waits; nil charges
	// nothing (fast, for tests).
	Sim *simcost.Simulator
	// MaxRatePerPartition caps Spark Streaming micro-batch sizes; other
	// runners ignore it. Zero keeps the engine default.
	MaxRatePerPartition int
	// TargetRecords is the end-of-input contract for KafkaRead sources:
	// the total number of records the input topic will eventually hold.
	// Runners keep consuming — blocking on the broker — until that many
	// records have been appended and drained, which lets a data sender
	// stream into the topic while the pipeline runs. Zero degrades every
	// KafkaRead to a bounded snapshot of the topic's contents at source
	// start (the right default when the topic is fully preloaded before
	// Run is called outside the harness).
	TargetRecords int64
	// Telemetry is the run's telemetry handle: every runner threads it
	// into its engine's runtime, which reports per-stage throughput,
	// lifecycle spans and watermark gauges through it. Nil disables all
	// of it at no hot-path cost.
	Telemetry *obs.Run
}

// EffectiveCosts resolves the cost model, defaulting when unset.
func (o Options) EffectiveCosts() simcost.Costs {
	if o.Costs != nil {
		return *o.Costs
	}
	return simcost.DefaultCosts()
}

// EffectiveParallelism resolves the parallelism, defaulting to 1.
func (o Options) EffectiveParallelism() int {
	if o.Parallelism <= 0 {
		return 1
	}
	return o.Parallelism
}

// Result is the runner-independent outcome of a pipeline execution.
type Result interface {
	// Elements returns the materialized elements of a collection in
	// processing order, or nil for runners that do not materialize
	// collections (the engine runners write only to their sinks).
	Elements(PCollection) []any
	// OperatorCount reports how many engine operators the translation
	// produced — the per-primitive expansion the paper quantifies, and
	// the number the fusion optimizer reduces.
	OperatorCount() int
	// Metrics maps engine operator (or aggregate counter) names to
	// emitted record counts.
	Metrics() map[string]int64
}

// Runner executes pipelines; implementations translate the validated
// pipeline to their engine and block until completion. Cancellation is
// coarse-grained: the engine runners honor ctx only before launching
// (an in-flight engine run completes), while the direct runner also
// checks between stages.
type Runner interface {
	Run(ctx context.Context, p *Pipeline, opts Options) (Result, error)
}

var (
	runnersMu sync.RWMutex
	runners   = make(map[string]Runner)
)

// RegisterRunner makes a runner selectable by name through GetRunner.
// Runner packages call it from init (import the package, or
// beambench/internal/beam/runners for all of them, to register). It
// panics on an empty name or a duplicate registration, which are
// programming errors.
func RegisterRunner(name string, r Runner) {
	if name == "" {
		panic("beam: RegisterRunner with empty name")
	}
	if r == nil {
		panic("beam: RegisterRunner with nil runner")
	}
	runnersMu.Lock()
	defer runnersMu.Unlock()
	if _, dup := runners[name]; dup {
		panic(fmt.Sprintf("beam: RegisterRunner called twice for %q", name))
	}
	runners[name] = r
}

// GetRunner returns the runner registered under name.
func GetRunner(name string) (Runner, error) {
	runnersMu.RLock()
	defer runnersMu.RUnlock()
	r, ok := runners[name]
	if !ok {
		return nil, fmt.Errorf("beam: no runner %q registered (have %v)", name, runnerNamesLocked())
	}
	return r, nil
}

// RunnerNames lists the registered runner names in sorted order.
func RunnerNames() []string {
	runnersMu.RLock()
	defer runnersMu.RUnlock()
	return runnerNamesLocked()
}

func runnerNamesLocked() []string {
	names := make([]string, 0, len(runners))
	for name := range runners {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
