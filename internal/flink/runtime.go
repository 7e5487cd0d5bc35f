package flink

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"beambench/internal/keyhash"
	"beambench/internal/metrics"
	"beambench/internal/obs"
	"beambench/internal/simcost"
	"beambench/internal/watermark"
)

// errStopped is the internal signal that the job is shutting down; it is
// never surfaced to callers.
var errStopped = errors.New("flink: job stopped")

// _channelBuffer is the capacity of the in-flight record buffer of one
// network channel between subtasks, standing in for Flink's network
// buffer pool.
const _channelBuffer = 128

// streamElement is one unit travelling a network channel: a data record,
// or a watermark control event. Watermarks flow through the dataflow
// itself — stamped where event time is assigned, forwarded by every
// task, combined min-over-senders at every multi-input point — so they
// carry the sending subtask's identity for the receiver's MinTracker.
type streamElement struct {
	rec    []byte
	wm     time.Time
	ctrl   bool
	sender int
}

// JobResult summarizes a finished job.
type JobResult struct {
	// JobName is the submitted name.
	JobName string
	// Duration is the wall-clock execution time including deployment.
	Duration time.Duration
	// Attempts counts executions: 1 plus the restarts consumed.
	Attempts int
	// Operators holds per-operator record counters from the last attempt.
	Operators []OperatorStats
	// Tasks is the number of physical tasks (chains) the job ran as.
	Tasks int
}

// OperatorStat returns the stats of the named operator.
func (r *JobResult) OperatorStat(name string) (OperatorStats, bool) {
	for _, s := range r.Operators {
		if s.Name == name {
			return s, true
		}
	}
	return OperatorStats{}, false
}

// chain is a group of operators fused into one physical task.
type chain struct {
	ops         []*operator
	parallelism int
}

func (c *chain) head() *operator { return c.ops[0] }
func (c *chain) tail() *operator { return c.ops[len(c.ops)-1] }

// buildChains groups the logical operators into physical tasks using
// Flink's chaining rule: forward-connected operators of equal
// parallelism fuse, unless chaining is disabled for the job or operator.
// Multi-input operators (Union) always head their own chain.
func (env *Environment) buildChains() []*chain {
	chainOf := make(map[*operator]*chain, len(env.ops))
	var chains []*chain
	for _, op := range env.ops {
		if len(op.inputs) == 1 && env.canChain(op.inputs[0], op) {
			c := chainOf[op.inputs[0].from]
			if c != nil && c.tail() == op.inputs[0].from {
				c.ops = append(c.ops, op)
				chainOf[op] = c
				continue
			}
		}
		c := &chain{ops: []*operator{op}, parallelism: op.parallelism}
		chains = append(chains, c)
		chainOf[op] = c
	}
	return chains
}

func (env *Environment) canChain(e inEdge, down *operator) bool {
	return env.chainingEnabled &&
		down.chainable &&
		e.part == partitionForward &&
		e.from.parallelism == down.parallelism &&
		len(e.from.outputs) == 1
}

// runtimeChain wires one chain into the running job.
type runtimeChain struct {
	c      *chain
	inputs []chan streamElement // one per subtask; nil for source chains
	edges  []*runtimeEdge
	// senders is the number of distinct upstream subtasks feeding this
	// chain's input channels (summed over input edges); each gets a slot
	// in every subtask's watermark MinTracker.
	senders int
	// pendingUp counts open input edges; the last finishing upstream
	// chain closes the input channels.
	pendingUp int32
	wg        sync.WaitGroup
}

// runtimeEdge carries records from this chain to one downstream chain.
type runtimeEdge struct {
	mode  partitioning
	keyFn KeySelector
	// senderBase is the first global sender index this edge's subtasks
	// occupy in the destination's MinTracker.
	senderBase int
	dst        *runtimeChain
	targets    []chan streamElement
}

// jobRuntime tracks shutdown across subtasks.
type jobRuntime struct {
	stop chan struct{}

	mu  sync.Mutex
	err error
}

func (rt *jobRuntime) fail(err error) {
	if err == nil || errors.Is(err, errStopped) {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.err == nil {
		rt.err = err
		close(rt.stop)
	}
}

func (rt *jobRuntime) failure() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.err
}

// Execute deploys and runs the job to completion (all sources exhausted
// and sinks closed), applying the cluster's restart strategy on failure.
func (env *Environment) Execute(jobName string) (*JobResult, error) {
	if err := env.validate(); err != nil {
		return nil, err
	}
	if !env.cluster.Running() {
		return nil, ErrClusterStopped
	}
	// Wall-clock here times the job for JobResult.Duration telemetry;
	// it never reaches record bytes, which carry their own event time.
	//beamvet:allow determinism duration telemetry, not record output
	start := time.Now()
	attempts := 0
	for {
		attempts++
		err := env.runOnce()
		if err == nil {
			chains := env.buildChains()
			return &JobResult{
				JobName:   jobName,
				Duration:  time.Since(start),
				Attempts:  attempts,
				Operators: env.operatorStats(),
				Tasks:     len(chains),
			}, nil
		}
		if attempts > env.cluster.cfg.RestartAttempts {
			return nil, fmt.Errorf("flink: job %q failed after %d attempt(s): %w", jobName, attempts, err)
		}
	}
}

func (env *Environment) operatorStats() []OperatorStats {
	out := make([]OperatorStats, 0, len(env.ops))
	for _, op := range env.ops {
		out = append(out, op.metrics.snapshot())
	}
	return out
}

func (env *Environment) runOnce() error {
	for _, op := range env.ops {
		op.metrics.reset()
	}
	// Pre-register telemetry stages in graph order, so reports list
	// operators as the job declares them rather than in the (reversed)
	// chain-composition order subtasks resolve them in.
	for _, op := range env.ops {
		env.cluster.cfg.Telemetry.Stage(op.name)
	}
	chains := env.buildChains()

	maxPar := 1
	for _, op := range env.ops {
		if op.parallelism > maxPar {
			maxPar = op.parallelism
		}
	}
	slots, err := env.cluster.jm.acquire(maxPar)
	if err != nil {
		return err
	}
	defer env.cluster.jm.release(slots)

	// Deployment cost: client -> Job Manager -> Task Managers.
	deployMeter := env.cluster.cfg.Sim.NewMeter()
	deployMeter.Charge(env.cluster.cfg.Costs.EngineJobStart)
	deployMeter.Flush()

	// Wire runtime chains and channels.
	rcs := make([]*runtimeChain, len(chains))
	rcOf := make(map[*operator]*runtimeChain, len(env.ops))
	for i, c := range chains {
		rc := &runtimeChain{c: c}
		if len(c.head().inputs) > 0 {
			rc.inputs = make([]chan streamElement, c.parallelism)
			for j := range rc.inputs {
				rc.inputs[j] = make(chan streamElement, _channelBuffer)
			}
		}
		rcs[i] = rc
		for _, op := range c.ops {
			rcOf[op] = rc
		}
	}
	for _, rc := range rcs {
		head := rc.c.head()
		for _, in := range head.inputs {
			up := rcOf[in.from]
			mode := in.part
			if mode == partitionForward && up.c.parallelism != rc.c.parallelism {
				mode = partitionRebalance
			}
			up.edges = append(up.edges, &runtimeEdge{
				mode:       mode,
				keyFn:      in.key,
				senderBase: rc.senders,
				dst:        rc,
				targets:    rc.inputs,
			})
			rc.senders += up.c.parallelism
			rc.pendingUp++
		}
	}

	rt := &jobRuntime{stop: make(chan struct{})}
	var all sync.WaitGroup
	for _, rc := range rcs {
		rc.wg.Add(rc.c.parallelism)
		for idx := range rc.c.parallelism {
			all.Add(1)
			go func(rc *runtimeChain, idx int) {
				defer all.Done()
				defer rc.wg.Done()
				if err := env.runSubtask(rt, rc, idx); err != nil {
					rt.fail(err)
				}
			}(rc, idx)
		}
		// Close each downstream chain's channels once every input edge's
		// upstream chain is done — with multiple inputs (Union), the last
		// finishing upstream signals end of stream.
		all.Add(1)
		go func(rc *runtimeChain) {
			defer all.Done()
			rc.wg.Wait()
			for _, e := range rc.edges {
				if atomic.AddInt32(&e.dst.pendingUp, -1) == 0 {
					for _, ch := range e.dst.inputs {
						close(ch)
					}
				}
			}
		}(rc)
	}
	all.Wait()
	return rt.failure()
}

// subtaskContext implements OperatorContext for one subtask.
type subtaskContext struct {
	idx     int
	par     int
	meter   *simcost.Meter
	tel     *obs.Run
	markers []*stageMarker
}

func (c *subtaskContext) SubtaskIndex() int      { return c.idx }
func (c *subtaskContext) Parallelism() int       { return c.par }
func (c *subtaskContext) Charge(d time.Duration) { c.meter.Charge(d) }

func (c *subtaskContext) flush() {
	for _, m := range c.markers {
		m.flush()
	}
	c.meter.Flush()
}

// newMarker returns a per-subtask throughput marker for one operator, or
// nil when metrics collection is disabled.
func (c *subtaskContext) newMarker(name string) *stageMarker {
	stage := c.tel.Stage(name)
	if stage == nil {
		return nil
	}
	m := &stageMarker{stage: stage}
	c.markers = append(c.markers, m)
	return m
}

// markerFlushEvery is how many records a subtask batches locally before
// one Mark call: the telemetry hot path stays a local increment, with a
// clock read and two atomics every 256 records.
const markerFlushEvery = 256

// stageMarker batches one subtask's marks for one stage. Methods on a
// nil marker are no-ops (collection disabled).
type stageMarker struct {
	stage   *metrics.Stage
	pending int64
}

func (m *stageMarker) mark() {
	if m == nil {
		return
	}
	m.pending++
	if m.pending >= markerFlushEvery {
		m.stage.Mark(m.pending)
		m.pending = 0
	}
}

func (m *stageMarker) flush() {
	if m == nil || m.pending == 0 {
		return
	}
	m.stage.Mark(m.pending)
	m.pending = 0
}

// wmHandler advances the watermark at one point of a chain's control
// path; handlers are composed back to front like collectors, ending in
// the broadcast to the chain's outgoing edges.
type wmHandler func(w time.Time) error

// emitterFunc adapts a wmHandler into the WatermarkEmitter a timestamp
// assigner injects through.
type emitterFunc func(w time.Time) error

func (f emitterFunc) EmitWatermark(w time.Time) error { return f(w) }

// runSubtask executes one parallel instance of a chain.
func (env *Environment) runSubtask(rt *jobRuntime, rc *runtimeChain, idx int) error {
	ctx := &subtaskContext{
		idx:   idx,
		par:   rc.c.parallelism,
		meter: env.cluster.cfg.Sim.NewMeter(),
		tel:   env.cluster.cfg.Telemetry,
	}
	defer ctx.flush()
	// One span per subtask attempt, on a track naming the chain (head
	// operator) and parallel instance.
	span := env.cluster.cfg.Telemetry.Span("flink/"+rc.c.head().name+"/subtask-"+strconv.Itoa(idx), "subtask")
	defer span.End()

	// Tail collector: either the network edges or nothing (sink ends the
	// chain and is handled inside the composed pipeline).
	var tail Collector = discardCollector{}
	var senders []*edgeSender
	if len(rc.edges) > 0 {
		cols := make([]Collector, len(rc.edges))
		for i, e := range rc.edges {
			s := &edgeSender{
				edge:    e,
				idx:     idx,
				stop:    rt.stop,
				meter:   ctx.meter,
				hopCost: env.cluster.cfg.Costs.NetworkHopPerRecord,
			}
			senders = append(senders, s)
			cols[i] = s
		}
		if len(cols) == 1 {
			tail = cols[0]
		} else {
			tail = multiCollector(cols)
		}
	}
	// The control path's tail: forward the subtask's output watermark on
	// every outgoing edge (broadcast — every downstream subtask tracks
	// this sender). The chain's output watermark also feeds a gauge the
	// obs monitor samples for per-operator watermark lag; subtasks of
	// one chain share the gauge (an atomic, last write wins).
	wmGauge := env.cluster.cfg.Telemetry.Gauge("watermark-lag/" + rc.c.tail().name)
	wmTail := wmHandler(func(w time.Time) error {
		wmGauge.SetTime(w)
		if w.Equal(watermark.EndOfTime) {
			env.cluster.cfg.Telemetry.Instant("drain/"+rc.c.tail().name, "end-of-input")
		}
		for _, s := range senders {
			if err := s.sendWatermark(w); err != nil {
				return err
			}
		}
		return nil
	})

	// Compose the chain back to front, collecting sinks to close and
	// stateful flushes to run at end of input. The watermark control path
	// composes alongside: a stage's watermark hook fires released panes
	// into the stage's own output collector before the watermark moves on
	// downstream.
	var (
		sinks   []Sink
		flushes []flushEntry
	)
	closeSinks := func() error {
		var firstErr error
		for _, s := range sinks {
			if err := s.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}

	current := tail
	currentWM := wmTail
	ops := rc.c.ops
	for i := len(ops) - 1; i >= 0; i-- {
		st, err := env.buildStage(ops[i], ctx, current, currentWM)
		if err != nil {
			_ = closeSinks()
			return err
		}
		if st.sink != nil {
			sinks = append(sinks, st.sink)
		}
		if st.flush.flush != nil {
			flushes = append(flushes, st.flush)
		}
		current = st.col
		if st.wm != nil {
			hook, out, next := st.wm, st.wmOut, currentWM
			currentWM = func(w time.Time) error {
				if err := hook(w, out); err != nil {
					return err
				}
				return next(w)
			}
		}
	}

	head := ops[0]
	var runErr error
	switch head.kind {
	case opSource:
		src, err := head.sourceFactory(ctx)
		if err != nil {
			runErr = fmt.Errorf("flink: open source %q: %w", head.name, err)
		} else {
			runErr = src.Run(current)
		}
	case opTransform, opSink:
		runErr = env.consumeInput(rc, idx, current, currentWM)
	default:
		runErr = fmt.Errorf("flink: unknown operator kind %d", head.kind)
	}

	// On clean end of input, flush stateful operators upstream-first so
	// their emissions flow through the downstream stages of the chain,
	// then propagate the end-of-stream watermark so downstream tasks
	// finalize this sender while other senders may still stream.
	if runErr == nil {
		for i := len(flushes) - 1; i >= 0; i-- {
			if err := flushes[i].flush(flushes[i].out); err != nil {
				runErr = err
				break
			}
		}
	}
	if runErr == nil {
		runErr = wmTail(watermark.EndOfTime)
	}

	closeErr := closeSinks()
	if runErr != nil && !errors.Is(runErr, errStopped) {
		return runErr
	}
	if closeErr != nil {
		return closeErr
	}
	return nil
}

// consumeInput drains one subtask's input channel: data records feed the
// composed collector chain; watermark control events advance the
// per-sender MinTracker, and each combined (min-over-senders) advance is
// delivered through the chain's control path. The sole head stage of an
// unfused stateful operator fires its panes there, exactly like a
// mid-chain one.
func (env *Environment) consumeInput(rc *runtimeChain, idx int, c Collector, wm wmHandler) error {
	tracker := watermark.NewMinTracker(rc.senders)
	var delivered time.Time
	for el := range rc.inputs[idx] {
		if !el.ctrl {
			if err := c.Collect(el.rec); err != nil {
				return err
			}
			continue
		}
		if el.wm.Equal(watermark.EndOfTime) {
			tracker.Finalize(el.sender)
		} else {
			tracker.Advance(el.sender, el.wm)
		}
		if combined := tracker.Combined(); combined.After(delivered) {
			delivered = combined
			if err := wm(combined); err != nil {
				return err
			}
		}
	}
	return nil
}

// flushEntry pairs a stateful operator's flush with the collector its
// final emissions feed.
type flushEntry struct {
	flush FlushFunc
	out   Collector
}

// builtStage is one operator instantiated for a subtask: the collector
// feeding it, plus its sink, end-of-input flush and watermark hook.
type builtStage struct {
	col   Collector
	sink  Sink
	flush flushEntry
	wm    WatermarkFunc
	wmOut Collector
}

// buildStage instantiates one operator of the chain for this subtask.
// nextWM is the downstream control path, which timestamp assigners
// inject their generated watermarks into.
func (env *Environment) buildStage(op *operator, ctx *subtaskContext, next Collector, nextWM wmHandler) (builtStage, error) {
	switch op.kind {
	case opSource:
		// A source heads its own chain and is run directly; its stage is
		// just the emission counter its Run collector goes through.
		return builtStage{col: &countingCollector{next: next, metrics: op.metrics, marker: ctx.newMarker(op.name)}}, nil
	case opTransform:
		counting := &countingCollector{next: next, metrics: op.metrics, marker: ctx.newMarker(op.name)}
		switch {
		case op.wmFactory != nil:
			fn, wmFn, flush, err := op.wmFactory(ctx)
			if err != nil {
				return builtStage{}, fmt.Errorf("flink: open operator %q: %w", op.name, err)
			}
			return builtStage{
				col:   &processCollector{fn: fn, out: counting, metrics: op.metrics},
				flush: flushEntry{flush: flush, out: counting},
				wm:    wmFn,
				wmOut: counting,
			}, nil
		case op.assignFactory != nil:
			fn, err := op.assignFactory(ctx, emitterFunc(nextWM))
			if err != nil {
				return builtStage{}, fmt.Errorf("flink: open operator %q: %w", op.name, err)
			}
			return builtStage{col: &processCollector{fn: fn, out: counting, metrics: op.metrics}}, nil
		case op.flushFactory != nil:
			fn, flush, err := op.flushFactory(ctx)
			if err != nil {
				return builtStage{}, fmt.Errorf("flink: open operator %q: %w", op.name, err)
			}
			return builtStage{
				col:   &processCollector{fn: fn, out: counting, metrics: op.metrics},
				flush: flushEntry{flush: flush, out: counting},
			}, nil
		default:
			fn, err := op.processFactory(ctx)
			if err != nil {
				return builtStage{}, fmt.Errorf("flink: open operator %q: %w", op.name, err)
			}
			return builtStage{col: &processCollector{fn: fn, out: counting, metrics: op.metrics}}, nil
		}
	case opSink:
		sink, err := op.sinkFactory(ctx)
		if err != nil {
			return builtStage{}, fmt.Errorf("flink: open sink %q: %w", op.name, err)
		}
		return builtStage{
			col:  &sinkCollector{sink: sink, metrics: op.metrics, marker: ctx.newMarker(op.name)},
			sink: sink,
		}, nil
	default:
		return builtStage{}, fmt.Errorf("flink: operator %q cannot appear mid-chain", op.name)
	}
}

// discardCollector terminates chains that end in a sink (the sink
// collector never forwards) and tolerates dead-end transforms in tests.
type discardCollector struct{}

func (discardCollector) Collect([]byte) error { return nil }

// countingCollector counts emissions of an operator before forwarding.
type countingCollector struct {
	next    Collector
	metrics *OperatorMetrics
	marker  *stageMarker
}

func (c *countingCollector) Collect(rec []byte) error {
	c.metrics.incOut()
	c.marker.mark()
	return c.next.Collect(rec)
}

// processCollector applies a transform to each incoming record.
type processCollector struct {
	fn      ProcessFunc
	out     Collector
	metrics *OperatorMetrics
}

func (c *processCollector) Collect(rec []byte) error {
	c.metrics.incIn()
	return c.fn(rec, c.out)
}

// sinkCollector delivers records to a sink instance.
type sinkCollector struct {
	sink    Sink
	metrics *OperatorMetrics
	marker  *stageMarker
}

func (c *sinkCollector) Collect(rec []byte) error {
	c.metrics.incIn()
	c.marker.mark()
	return c.sink.Invoke(rec)
}

// multiCollector fans a record out to several collectors.
type multiCollector []Collector

func (m multiCollector) Collect(rec []byte) error {
	for _, c := range m {
		if err := c.Collect(rec); err != nil {
			return err
		}
	}
	return nil
}

// edgeSender ships records across a task boundary: it serializes (copies)
// the record, charges the per-record network hop, and delivers to the
// downstream subtask chosen by the edge's partitioning. Watermarks are
// control events: they broadcast to every downstream subtask under this
// sender's identity, so each receiver can hold its combined watermark at
// the minimum over all senders.
type edgeSender struct {
	edge    *runtimeEdge
	idx     int
	rr      int
	lastWM  time.Time
	stop    <-chan struct{}
	meter   *simcost.Meter
	hopCost time.Duration
}

func (e *edgeSender) Collect(rec []byte) error {
	wire := make([]byte, len(rec))
	copy(wire, rec)
	e.meter.Charge(e.hopCost)

	var target chan streamElement
	switch e.edge.mode {
	case partitionForward:
		target = e.edge.targets[e.idx%len(e.edge.targets)]
	case partitionHash:
		key, err := e.edge.keyFn(rec)
		if err != nil {
			return fmt.Errorf("flink: key selector: %w", err)
		}
		target = e.edge.targets[keyhash.Partition(key, len(e.edge.targets))]
	default:
		target = e.edge.targets[e.rr%len(e.edge.targets)]
		e.rr++
	}
	return e.send(target, streamElement{rec: wire})
}

// sendWatermark broadcasts one watermark control event; regressions and
// repeats are dropped (the control path is monotone per sender).
func (e *edgeSender) sendWatermark(w time.Time) error {
	if !w.After(e.lastWM) {
		return nil
	}
	e.lastWM = w
	el := streamElement{wm: w, ctrl: true, sender: e.edge.senderBase + e.idx}
	for _, target := range e.edge.targets {
		if err := e.send(target, el); err != nil {
			return err
		}
	}
	return nil
}

func (e *edgeSender) send(target chan streamElement, el streamElement) error {
	select {
	case target <- el:
		return nil
	case <-e.stop:
		return errStopped
	}
}
