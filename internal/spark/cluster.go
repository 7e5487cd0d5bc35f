package spark

import (
	"errors"
	"fmt"
	"sync"

	"beambench/internal/obs"
	"beambench/internal/simcost"
)

// Errors reported by the cluster and streaming context.
var (
	ErrClusterStopped = errors.New("spark: cluster not running")
	ErrContextState   = errors.New("spark: invalid streaming context state")
)

// ClusterConfig sizes a Spark standalone cluster. Defaults match the
// paper's two worker nodes with eight cores each.
type ClusterConfig struct {
	// Executors is the number of executor processes; defaults to 2.
	Executors int
	// CoresPerExecutor bounds concurrent tasks per executor; defaults
	// to 8.
	CoresPerExecutor int
	// Costs is the latency model; zero charges nothing.
	Costs simcost.Costs
	// Sim scales the cost model; nil charges nothing.
	Sim *simcost.Simulator
	// Telemetry, when non-nil, receives per-stage throughput while
	// applications run (the input stream, every named narrow stage and
	// every output operation mark their record counts per micro-batch),
	// a span per micro-batch and a watermark gauge per stateful stage.
	// Nil disables all of it.
	Telemetry *obs.Run
}

func (c *ClusterConfig) validate() error {
	if c.Executors == 0 {
		c.Executors = 2
	}
	if c.CoresPerExecutor == 0 {
		c.CoresPerExecutor = 8
	}
	if c.Executors < 0 || c.CoresPerExecutor < 0 {
		return fmt.Errorf("spark: negative cluster size %d x %d", c.Executors, c.CoresPerExecutor)
	}
	return nil
}

// Cluster models a Spark standalone cluster (Section II-C of the paper):
// a cluster manager granting executors to applications; each executor
// runs tasks on its cores. Applications hold their executors exclusively,
// so one Cluster here serves one application at a time.
type Cluster struct {
	cfg ClusterConfig

	mu      sync.Mutex
	started bool
	slots   chan struct{}
}

// NewCluster returns a stopped cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Cluster{cfg: cfg}, nil
}

// Start brings the cluster online.
func (c *Cluster) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		return
	}
	c.started = true
	c.slots = make(chan struct{}, c.cfg.Executors*c.cfg.CoresPerExecutor)
}

// Stop takes the cluster offline.
func (c *Cluster) Stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.started = false
}

// Running reports whether the cluster accepts applications.
func (c *Cluster) Running() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.started
}

// TotalCores reports the task-slot capacity.
func (c *Cluster) TotalCores() int {
	return c.cfg.Executors * c.cfg.CoresPerExecutor
}

// Costs exposes the cluster's latency model, so runner translations can
// charge consistent per-record costs.
func (c *Cluster) Costs() simcost.Costs {
	return c.cfg.Costs
}

// Telemetry exposes the cluster's telemetry handle (nil when disabled),
// so runner translations report into the same run as the runtime.
func (c *Cluster) Telemetry() *obs.Run {
	return c.cfg.Telemetry
}

// runTask executes fn on an executor core, blocking while all cores are
// busy. The returned meter charge discipline: fn receives a fresh meter.
func (c *Cluster) runTask(fn func(meter *simcost.Meter) error) error {
	c.mu.Lock()
	slots := c.slots
	started := c.started
	c.mu.Unlock()
	if !started {
		return ErrClusterStopped
	}
	slots <- struct{}{}
	defer func() { <-slots }()
	meter := c.cfg.Sim.NewMeter()
	defer meter.Flush()
	meter.Charge(c.cfg.Costs.SparkTaskLaunch)
	return fn(meter)
}
