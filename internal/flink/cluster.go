package flink

import (
	"errors"
	"fmt"
	"sync"

	"beambench/internal/obs"
	"beambench/internal/simcost"
)

// Errors reported by the cluster.
var (
	ErrClusterStopped = errors.New("flink: cluster not running")
	ErrNoSlots        = errors.New("flink: not enough free task slots")
)

// ClusterConfig sizes a standalone Flink-style cluster. The defaults
// match the paper's setup: two worker nodes (Task Managers), each with
// eight CPU cores worth of task slots.
type ClusterConfig struct {
	// TaskManagers is the number of worker processes; defaults to 2.
	TaskManagers int
	// SlotsPerTaskManager is the number of task slots per Task Manager;
	// defaults to 8.
	SlotsPerTaskManager int
	// RestartAttempts is the fixed-delay restart strategy budget: how
	// many times a failed job is restarted before the failure is
	// reported. Defaults to 0 (fail fast), as restarts would distort
	// benchmark timings.
	RestartAttempts int
	// Costs is the latency model; zero charges nothing.
	Costs simcost.Costs
	// Sim scales the cost model; nil charges nothing.
	Sim *simcost.Simulator
	// Telemetry, when non-nil, receives per-operator throughput while
	// jobs run (every operator's emissions, and every sink's writes, are
	// marked under the operator's name), a span per subtask attempt and
	// a watermark gauge per operator chain. Marks are cumulative like
	// monitoring counters: with RestartAttempts > 0 they include the
	// work a failed attempt performed, unlike the per-attempt
	// OperatorMetrics snapshots, which reset on every attempt. Nil
	// disables all of it.
	Telemetry *obs.Run
}

func (c *ClusterConfig) validate() error {
	if c.TaskManagers == 0 {
		c.TaskManagers = 2
	}
	if c.SlotsPerTaskManager == 0 {
		c.SlotsPerTaskManager = 8
	}
	if c.TaskManagers < 0 || c.SlotsPerTaskManager < 0 {
		return fmt.Errorf("flink: negative cluster size %d x %d", c.TaskManagers, c.SlotsPerTaskManager)
	}
	if c.RestartAttempts < 0 {
		return fmt.Errorf("flink: negative restart attempts %d", c.RestartAttempts)
	}
	return nil
}

// Cluster is a standalone Flink-style cluster: one Job Manager
// scheduling work onto Task Manager slots (Section II-B of the paper).
type Cluster struct {
	cfg ClusterConfig
	jm  *jobManager

	mu      sync.Mutex
	started bool
}

// NewCluster returns a stopped cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg}
	c.jm = newJobManager(cfg.TaskManagers, cfg.SlotsPerTaskManager)
	return c, nil
}

// Start brings the cluster online. Starting a started cluster is a no-op.
func (c *Cluster) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.started = true
}

// Stop takes the cluster offline; running jobs finish but new submissions
// fail. The benchmark restarts the cluster between runs, mirroring the
// paper's process (Section III-A2).
func (c *Cluster) Stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.started = false
}

// Running reports whether the cluster accepts jobs.
func (c *Cluster) Running() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.started
}

// TotalSlots reports the cluster's slot capacity.
func (c *Cluster) TotalSlots() int {
	return c.cfg.TaskManagers * c.cfg.SlotsPerTaskManager
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

// FreeSlots reports currently unoccupied slots.
func (c *Cluster) FreeSlots() int {
	return c.jm.freeSlots()
}

// jobManager tracks slot occupancy across task managers. With slot
// sharing (Flink's default) a job occupies max-parallelism many slots,
// spread round-robin over task managers.
type jobManager struct {
	mu   sync.Mutex
	tms  []*taskManager
	next int
}

type taskManager struct {
	id    int
	total int
	used  int
}

func newJobManager(tms, slotsPer int) *jobManager {
	jm := &jobManager{tms: make([]*taskManager, tms)}
	for i := range jm.tms { //beamvet:allow locksafe constructor-time writes before the jobManager escapes
		jm.tms[i] = &taskManager{id: i, total: slotsPer}
	}
	return jm
}

func (jm *jobManager) freeSlots() int {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	free := 0
	for _, tm := range jm.tms {
		free += tm.total - tm.used
	}
	return free
}

// acquire reserves n shared slots, spread round-robin across task
// managers, and returns the owning task-manager IDs.
func (jm *jobManager) acquire(n int) ([]int, error) {
	if n <= 0 {
		return nil, fmt.Errorf("flink: invalid slot request %d", n)
	}
	jm.mu.Lock()
	defer jm.mu.Unlock()
	free := 0
	for _, tm := range jm.tms {
		free += tm.total - tm.used
	}
	if free < n {
		return nil, fmt.Errorf("%w: need %d, have %d", ErrNoSlots, n, free)
	}
	owners := make([]int, 0, n)
	for len(owners) < n {
		tm := jm.tms[jm.next%len(jm.tms)]
		jm.next++
		if tm.used < tm.total {
			tm.used++
			owners = append(owners, tm.id)
		}
	}
	return owners, nil
}

// release returns slots to their task managers.
func (jm *jobManager) release(owners []int) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	for _, id := range owners {
		if id >= 0 && id < len(jm.tms) && jm.tms[id].used > 0 {
			jm.tms[id].used--
		}
	}
}
