package spark

import (
	"fmt"
	"sync"
)

// StatefulProcessor is a keyed per-partition operator whose state
// survives across micro-batches — the engine's state path (the
// updateStateByKey/mapWithState family). One instance exists per stage
// partition for the lifetime of the run; records of one partition are
// delivered in batch order.
type StatefulProcessor interface {
	// Process handles one record of the current batch; task carries the
	// running task's cost meter.
	Process(task TaskContext, rec []byte, emit func([]byte)) error
	// EndBatch marks a micro-batch boundary; window firing happens here,
	// so pane emission is quantized to batch boundaries as micro-batch
	// semantics dictate.
	EndBatch(task TaskContext, emit func([]byte)) error
	// EndStream flushes remaining state when the bounded input ends.
	EndStream(task TaskContext, emit func([]byte)) error
}

// StatefulFactory builds the processor of one stage partition; it runs
// once per partition on first use, not per batch.
type StatefulFactory func(partition int) (StatefulProcessor, error)

// Stateful adds a keyed stateful stage whose per-partition processors
// persist across micro-batches. The stage is a barrier in the lineage
// (like a shuffle): upstream narrow stages compute per batch, the
// stateful stage consumes the batch, and its emissions feed the
// downstream stages of the same batch. When the bounded input drains,
// the scheduler runs one final flush pass in which EndStream emissions
// flow through the downstream lineage.
//
// A stateful stage must be consumed by exactly one output operation:
// Spark recomputes lineage per output (no cache()), and replaying
// records into persistent state would double-count.
func (ds *DStream) Stateful(name string, factory StatefulFactory) *DStream {
	if factory == nil {
		ds.ssc.fail(fmt.Errorf("spark: stateful stage %q: nil factory", name))
		return ds
	}
	out := &DStream{
		ssc:    ds.ssc,
		parent: ds,
		kind:   stageStateful,
		name:   name,
		state:  &statefulNode{factory: factory},
	}
	return out
}

// statefulNode is the persistent run-time state of one Stateful stage.
type statefulNode struct {
	factory StatefulFactory

	mu        sync.Mutex
	instances []StatefulProcessor
}

// instancesFor returns the stage's processors, creating them on first
// use and pinning the partition count for the rest of the run.
func (n *statefulNode) instancesFor(parts int) ([]StatefulProcessor, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.instances == nil {
		n.instances = make([]StatefulProcessor, parts)
		for p := range n.instances {
			inst, err := n.factory(p)
			if err != nil {
				n.instances = nil
				return nil, err
			}
			n.instances[p] = inst
		}
	}
	if len(n.instances) != parts {
		return nil, fmt.Errorf("spark: stateful stage saw %d partitions after %d; keyed state needs a stable layout",
			parts, len(n.instances))
	}
	return n.instances, nil
}

// current returns the already-created processors (possibly nil), for the
// end-of-input flush pass.
func (n *statefulNode) current() []StatefulProcessor {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.instances
}

// RepartitionByKey redistributes records into n partitions by key hash,
// so all records with equal keys land in the same partition — the
// shuffle a keyed stateful stage needs when upstream partitioning is
// round-robin. It introduces a shuffle boundary like Repartition.
func (ds *DStream) RepartitionByKey(n int, key func(rec []byte) ([]byte, error)) *DStream {
	if n <= 0 {
		ds.ssc.fail(fmt.Errorf("spark: repartition by key to %d partitions", n))
		return ds
	}
	if key == nil {
		ds.ssc.fail(fmt.Errorf("spark: repartition by key: nil key selector"))
		return ds
	}
	return &DStream{ssc: ds.ssc, parent: ds, kind: stageShuffle, width: n, shuffleKey: key}
}
