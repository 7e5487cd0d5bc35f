package spark

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"beambench/internal/keyhash"
	"beambench/internal/metrics"
	"beambench/internal/simcost"
	"beambench/internal/watermark"
)

// RunBounded drives the application until the input source is exhausted,
// processing backlogged micro-batches back-to-back, and returns the
// aggregated metrics. This is the mode the benchmark uses: the input
// topic is preloaded, so the job consumes everything and finishes.
func (ssc *StreamingContext) RunBounded() (StreamingMetrics, error) {
	if err := ssc.precheck(); err != nil {
		return StreamingMetrics{}, err
	}
	ssc.state = stateRunning
	defer func() { ssc.state = stateStopped }()

	driver := ssc.cluster.cfg.Sim.NewMeter()
	driver.Charge(ssc.cluster.cfg.Costs.EngineJobStart)
	driver.Flush()

	for batchID := int64(0); ; batchID++ {
		batch := make(map[*DStream][][][]byte, len(ssc.inputs))
		n := 0
		remaining := false
		for _, in := range ssc.inputs {
			parts, more, err := in.input.nextBatch(batchID)
			if err != nil {
				return ssc.snapshotMetrics(), fmt.Errorf("spark: batch %d input: %w", batchID, err)
			}
			batch[in] = parts
			n += countRecords(parts)
			remaining = remaining || more
		}
		if n == 0 {
			if !remaining {
				// Bounded input drained: stateful stages flush their
				// remaining state through the downstream lineage in one
				// final pass.
				if ssc.hasStatefulStage() {
					if err := ssc.runFlushBatch(batchID, driver); err != nil {
						return ssc.snapshotMetrics(), err
					}
				}
				return ssc.snapshotMetrics(), nil
			}
			// Idle batch: the bounded source claims more data is coming
			// (e.g. a concurrent producer); yield briefly.
			time.Sleep(time.Millisecond)
			continue
		}
		if err := ssc.runBatch(batchID, batch, driver); err != nil {
			return ssc.snapshotMetrics(), err
		}
	}
}

// walkUp visits ds and every node upstream of it (parents of union
// stages included).
func walkUp(ds *DStream, fn func(*DStream)) {
	for cur := ds; cur != nil; cur = cur.parent {
		fn(cur)
		if cur.kind == stageUnion {
			for _, p := range cur.parents {
				walkUp(p, fn)
			}
			return
		}
	}
}

// hasStatefulStage reports whether any output's lineage contains a
// stateful stage.
func (ssc *StreamingContext) hasStatefulStage() bool {
	found := false
	for _, out := range ssc.outputs {
		walkUp(out.stream, func(cur *DStream) {
			if cur.kind == stageStateful {
				found = true
			}
		})
	}
	return found
}

// lineageWatermark computes the watermark entering a stateful stage:
// the minimum over the assign stages in its upstream lineage, each of
// which has already processed the current batch when the stateful
// stage runs. A lineage without an assigner stays at the zero
// watermark — its panes hold until the end-of-input flush.
func lineageWatermark(ds *DStream) time.Time {
	var w time.Time
	found := false
	walkUp(ds, func(s *DStream) {
		if s.kind == stageAssign {
			sw := s.assign.watermark()
			if !found || sw.Before(w) {
				w = sw
				found = true
			}
		}
	})
	return w
}

// Start launches the micro-batch scheduler at the configured interval,
// for unbounded operation. Use Stop to terminate and collect metrics.
func (ssc *StreamingContext) Start() error {
	if err := ssc.precheck(); err != nil {
		return err
	}
	ssc.state = stateRunning
	ssc.stopCh = make(chan struct{})
	ssc.doneCh = make(chan struct{})
	go ssc.schedulerLoop()
	return nil
}

// Stop terminates a Start-ed context, waits for the scheduler to drain,
// and returns the metrics and any batch error.
func (ssc *StreamingContext) Stop() (StreamingMetrics, error) {
	if ssc.state != stateRunning || ssc.stopCh == nil {
		return ssc.snapshotMetrics(), fmt.Errorf("%w: not running", ErrContextState)
	}
	close(ssc.stopCh)
	<-ssc.doneCh
	ssc.state = stateStopped
	ssc.mu.Lock()
	defer ssc.mu.Unlock()
	return ssc.metrics, ssc.runErr
}

// snapshotMetrics reads the metrics under the lock. The driver paths
// that call it are sequential points (between batches, or before the
// scheduler starts), but batch workers update the counters
// concurrently during a batch, so every read pays for the lock rather
// than reasoning per call site about which phase it runs in.
func (ssc *StreamingContext) snapshotMetrics() StreamingMetrics {
	ssc.mu.Lock()
	defer ssc.mu.Unlock()
	return ssc.metrics
}

func (ssc *StreamingContext) schedulerLoop() {
	defer close(ssc.doneCh)
	driver := ssc.cluster.cfg.Sim.NewMeter()
	driver.Charge(ssc.cluster.cfg.Costs.EngineJobStart)
	driver.Flush()
	ticker := time.NewTicker(ssc.cfg.BatchInterval)
	defer ticker.Stop()
	var batchID int64
	for {
		select {
		case <-ssc.stopCh:
			return
		case <-ticker.C:
			batch := make(map[*DStream][][][]byte, len(ssc.inputs))
			n := 0
			var err error
			for _, in := range ssc.inputs {
				parts, _, perr := in.input.nextBatch(batchID)
				if perr != nil {
					err = perr
					break
				}
				batch[in] = parts
				n += countRecords(parts)
			}
			if err == nil && n > 0 {
				err = ssc.runBatch(batchID, batch, driver)
			}
			if err != nil {
				ssc.mu.Lock()
				if ssc.runErr == nil {
					ssc.runErr = err
				}
				ssc.mu.Unlock()
				return
			}
			batchID++
		}
	}
}

func (ssc *StreamingContext) precheck() error {
	if ssc.err != nil {
		return ssc.err
	}
	if ssc.state != stateBuilding {
		return fmt.Errorf("%w: already started", ErrContextState)
	}
	if !ssc.cluster.Running() {
		return ErrClusterStopped
	}
	if len(ssc.inputs) == 0 {
		return errors.New("spark: no input stream")
	}
	if len(ssc.outputs) == 0 {
		return errors.New("spark: no output operations registered")
	}
	for _, out := range ssc.outputs {
		if out.stream == nil {
			return fmt.Errorf("spark: output %q has no stream", out.name)
		}
	}
	// Lineage is recomputed per output (no cache()); replaying records
	// into a persistent stateful stage from a second output would
	// double-count its state.
	statefulUses := make(map[*DStream]int)
	for _, out := range ssc.outputs {
		walkUp(out.stream, func(cur *DStream) {
			if cur.kind == stageStateful {
				statefulUses[cur]++
			}
		})
	}
	for st, n := range statefulUses {
		if n > 1 {
			return fmt.Errorf("spark: stateful stage %q consumed by more than one output operation", st.name)
		}
	}
	return nil
}

// runBatch executes one micro-batch: for every registered output
// operation, recompute its lineage over the batch (Spark semantics
// without cache()) and run the output action. batch maps each input
// stream to its partitions for this batch.
func (ssc *StreamingContext) runBatch(batchID int64, batch map[*DStream][][][]byte, driver *simcost.Meter) error {
	span := ssc.cluster.cfg.Telemetry.Span("spark/driver", "batch-"+strconv.FormatInt(batchID, 10))
	defer span.End()
	driver.Charge(ssc.cluster.cfg.Costs.SparkBatch)
	driver.Flush()
	var n int64
	for _, in := range ssc.inputs {
		c := int64(countRecords(batch[in]))
		n += c
		ssc.cluster.cfg.Telemetry.Stage(in.name).Mark(c)
	}
	ssc.mu.Lock()
	ssc.metrics.Batches++
	ssc.metrics.RecordsIn += n
	ssc.mu.Unlock()

	for _, out := range ssc.outputs {
		data, err := ssc.compute(out.stream, batchID, batch, false)
		if err != nil {
			return fmt.Errorf("spark: batch %d: %w", batchID, err)
		}
		written, err := ssc.runOutput(out, batchID, data)
		if err != nil {
			return fmt.Errorf("spark: batch %d output %q: %w", batchID, out.name, err)
		}
		ssc.mu.Lock()
		ssc.metrics.RecordsOut += int64(written)
		ssc.mu.Unlock()
	}
	return nil
}

// runFlushBatch runs the end-of-input pass: stateful stages emit their
// remaining state (EndStream) and the emissions flow through the
// downstream lineage and output operations like a regular batch.
func (ssc *StreamingContext) runFlushBatch(batchID int64, driver *simcost.Meter) error {
	span := ssc.cluster.cfg.Telemetry.Span("spark/driver", "flush-batch")
	defer span.End()
	driver.Charge(ssc.cluster.cfg.Costs.SparkBatch)
	driver.Flush()
	ssc.mu.Lock()
	ssc.metrics.Batches++
	ssc.mu.Unlock()
	for _, out := range ssc.outputs {
		data, err := ssc.compute(out.stream, batchID, nil, true)
		if err != nil {
			return fmt.Errorf("spark: flush batch: %w", err)
		}
		written, err := ssc.runOutput(out, batchID, data)
		if err != nil {
			return fmt.Errorf("spark: flush batch output %q: %w", out.name, err)
		}
		ssc.mu.Lock()
		ssc.metrics.RecordsOut += int64(written)
		ssc.mu.Unlock()
	}
	return nil
}

// narrowStage is one named narrow stage of a fused task group.
type narrowStage struct {
	name    string
	factory narrowFactory
}

// compute recursively evaluates the lineage of ds over one batch.
// batch maps each input stream to its partitions; with flush set (the
// end-of-input pass) the inputs contribute nothing, stateful stages
// emit their remaining state, and the watermark is end-of-time.
// Consecutive narrow stages fuse into single task groups, as Spark's
// DAG scheduler does; shuffles, unions, assigners and stateful stages
// are barriers.
func (ssc *StreamingContext) compute(ds *DStream, batchID int64, batch map[*DStream][][][]byte, flush bool) ([][][]byte, error) {
	switch ds.kind {
	case stageInput:
		if ds.input == nil {
			return nil, errors.New("spark: stream is not rooted at an input")
		}
		return batch[ds], nil
	case stageUnion:
		var out [][][]byte
		for _, p := range ds.parents {
			parts, err := ssc.compute(p, batchID, batch, flush)
			if err != nil {
				return nil, err
			}
			out = append(out, parts...)
		}
		return out, nil
	case stageShuffle:
		parts, err := ssc.compute(ds.parent, batchID, batch, flush)
		if err != nil {
			return nil, err
		}
		return ssc.shuffle(parts, ds.width, ds.shuffleKey)
	case stageAssign:
		parts, err := ssc.compute(ds.parent, batchID, batch, flush)
		if err != nil {
			return nil, err
		}
		return ssc.runAssignStage(ds, parts)
	case stageStateful:
		parts, err := ssc.compute(ds.parent, batchID, batch, flush)
		if err != nil {
			return nil, err
		}
		wm := watermark.EndOfTime
		if !flush {
			// The upstream assigners have processed this batch already
			// (compute above), so the lineage watermark reflects every
			// record about to enter the stateful stage.
			wm = lineageWatermark(ds)
		}
		return ssc.runStatefulStage(ds, batchID, parts, flush, wm)
	case stageNarrow:
		var chain []narrowStage
		top := ds
		for {
			chain = append(chain, narrowStage{name: top.name, factory: top.factory})
			if top.parent == nil || top.parent.kind != stageNarrow {
				break
			}
			top = top.parent
		}
		for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
			chain[i], chain[j] = chain[j], chain[i]
		}
		parts, err := ssc.compute(top.parent, batchID, batch, flush)
		if err != nil {
			return nil, err
		}
		return ssc.runNarrowStage(chain, batchID, parts)
	default:
		return nil, fmt.Errorf("spark: unexpected stage kind %d", ds.kind)
	}
}

// runAssignStage feeds one batch through the timestamp assigner: each
// partition's records advance that partition's persistent generator,
// then pass through unchanged. One task per partition, like any
// narrow stage.
func (ssc *StreamingContext) runAssignStage(st *DStream, parts [][][]byte) ([][][]byte, error) {
	handle := ssc.cluster.cfg.Telemetry.Stage(st.name)
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for p := range parts {
		if len(parts[p]) == 0 {
			continue
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = ssc.cluster.runTask(func(meter *simcost.Meter) error {
				gen := st.assign.generator(p)
				for _, rec := range parts[p] {
					et, err := st.assign.eventTime(rec)
					if err != nil {
						return fmt.Errorf("spark: assign timestamps: %w", err)
					}
					gen.Observe(et)
				}
				handle.Mark(int64(len(parts[p])))
				return nil
			})
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return parts, nil
}

// runStatefulStage delivers one batch's partitions into the stage's
// persistent processors (creating them on first use) and collects their
// emissions; window firing happens at the batch boundary (EndBatch),
// driven by the lineage watermark delivered in TaskContext.Watermark.
// On the flush pass it instead drains the processors' remaining state
// (EndStream) under the end-of-time watermark.
func (ssc *StreamingContext) runStatefulStage(st *DStream, batchID int64, parts [][][]byte, flush bool, wm time.Time) ([][][]byte, error) {
	var (
		instances []StatefulProcessor
		err       error
	)
	if flush {
		// Only already-created processors can hold state to drain.
		instances = st.state.current()
		if instances == nil {
			return nil, nil
		}
	} else {
		instances, err = st.state.instancesFor(len(parts))
		if err != nil {
			return nil, err
		}
	}

	handle := ssc.cluster.cfg.Telemetry.Stage(st.name)
	// The watermark delivered into the stage this batch, for the obs
	// monitor's per-operator lag track.
	ssc.cluster.cfg.Telemetry.Gauge("watermark-lag/" + st.name).SetTime(wm)
	out := make([][][]byte, len(instances))
	errs := make([]error, len(instances))
	var wg sync.WaitGroup
	for p := range instances {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = ssc.cluster.runTask(func(meter *simcost.Meter) error {
				task := TaskContext{BatchID: batchID, Partition: p, Charge: meter.Charge, Watermark: wm}
				var result [][]byte
				emit := func(rec []byte) { result = append(result, rec) }
				inst := instances[p]
				if flush {
					if err := inst.EndStream(task, emit); err != nil {
						return err
					}
				} else {
					for _, rec := range parts[p] {
						if err := inst.Process(task, rec, emit); err != nil {
							return err
						}
					}
					if err := inst.EndBatch(task, emit); err != nil {
						return err
					}
				}
				handle.Mark(int64(len(result)))
				out[p] = result
				return nil
			})
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runNarrowStage runs one fused stage as parallel tasks, one per
// partition, bounded by the cluster's executor cores. When telemetry is
// enabled each task counts per-stage emissions locally and marks them in
// one call at task end, keeping the record loop allocation- and
// atomic-free.
func (ssc *StreamingContext) runNarrowStage(stages []narrowStage, batchID int64, parts [][][]byte) ([][][]byte, error) {
	// Stage returns nil for every stage or for none, so a nil first
	// handle means collection is off and tasks skip counting entirely.
	tel := ssc.cluster.cfg.Telemetry
	var handles []*metrics.Stage
	if tel.Stage(stages[0].name) != nil {
		handles = make([]*metrics.Stage, len(stages))
		for i, s := range stages {
			handles[i] = tel.Stage(s.name)
		}
	}
	out := make([][][]byte, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for p := range parts {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = ssc.cluster.runTask(func(meter *simcost.Meter) error {
				task := TaskContext{
					BatchID:   batchID,
					Partition: p,
					Charge:    meter.Charge,
				}
				var result [][]byte
				sinkEmit := func(rec []byte) { result = append(result, rec) }
				handler := sinkEmit
				var counts []int64
				if handles != nil {
					counts = make([]int64, len(stages))
				}
				for i := len(stages) - 1; i >= 0; i-- {
					fn, err := stages[i].factory(task)
					if err != nil {
						return err
					}
					next := handler
					if handles != nil {
						inner := next
						count := &counts[i]
						next = func(rec []byte) {
							*count++
							inner(rec)
						}
					}
					handler = func(rec []byte) { fn(rec, next) }
				}
				for _, rec := range parts[p] {
					handler(rec)
				}
				for i, h := range handles {
					h.Mark(counts[i])
				}
				out[p] = result
				return nil
			})
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// shuffle redistributes records into width partitions — round-robin, or
// by key hash when keyFn is set (RepartitionByKey) so equal keys land in
// one partition — charging the shuffle write/fetch cost and copying each
// record (serialize to shuffle files, deserialize on fetch).
func (ssc *StreamingContext) shuffle(parts [][][]byte, width int, keyFn func([]byte) ([]byte, error)) ([][][]byte, error) {
	out := make([][][]byte, width)
	meter := ssc.cluster.cfg.Sim.NewMeter()
	defer meter.Flush()
	i := 0
	for _, part := range parts {
		for _, rec := range part {
			cp := make([]byte, len(rec))
			copy(cp, rec)
			meter.Charge(ssc.cluster.cfg.Costs.SparkShufflePerRecord)
			target := i % width
			if keyFn != nil {
				key, err := keyFn(rec)
				if err != nil {
					return nil, fmt.Errorf("spark: keyed shuffle: %w", err)
				}
				target = keyhash.Partition(key, width)
			}
			out[target] = append(out[target], cp)
			i++
		}
	}
	return out, nil
}

// runOutput executes the output action over the final partitions, one
// task per partition, and reports the number of records written.
func (ssc *StreamingContext) runOutput(op *outputOp, batchID int64, parts [][][]byte) (int, error) {
	counts := make([]int, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for p := range parts {
		if len(parts[p]) == 0 {
			continue
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = ssc.cluster.runTask(func(meter *simcost.Meter) error {
				task := TaskContext{BatchID: batchID, Partition: p, Charge: meter.Charge}
				w, err := op.open(task)
				if err != nil {
					return err
				}
				for _, rec := range parts[p] {
					if err := w.write(rec); err != nil {
						_ = w.close()
						return err
					}
					counts[p]++
				}
				return w.close()
			})
		}(p)
	}
	wg.Wait()
	total := 0
	for p := range parts {
		if errs[p] != nil {
			return total, errs[p]
		}
		total += counts[p]
	}
	ssc.cluster.cfg.Telemetry.Stage(op.name).Mark(int64(total))
	return total, nil
}

func countRecords(parts [][][]byte) int {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	return n
}
