package main

import (
	"fmt"

	"beambench/internal/harness"
	"beambench/internal/queries"
	"beambench/internal/simcost"
)

// workload is one set of inputs the benchmark runs: a query set over
// the full 12-setup matrix (3 systems x 2 APIs x P1/P2), a dataset size,
// and the ingest and cost regime. README.md records why each exists.
type workload struct {
	name    string
	records int
	queries []queries.Query
	// zeroCosts runs with simcost.ZeroCosts, leaving only the Go
	// implementation's own time.
	zeroCosts bool
	// rate > 0 selects stream ingest: an open-loop sender paced at rate
	// records/s on the simulated clock, concurrent with the engine.
	rate int
}

var workloads = []workload{
	{
		name:    "paper-stateless",
		records: 5000,
		queries: queries.Stateless(),
	},
	{
		name:      "stateful-residual",
		records:   5000,
		queries:   []queries.Query{queries.WindowedCount, queries.SlidingSum, queries.Join},
		zeroCosts: true,
	},
	{
		name:    "stateful-stream",
		records: 2500,
		queries: []queries.Query{queries.WindowedCount, queries.Join},
		rate:    10000,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// config is the harness configuration of one pass. Noise is off so the
// modelled charges are deterministic; telemetry is on so every output
// record is paired with the reference and its latency sketched.
func (w workload) config(seed uint64) harness.Config {
	cfg := harness.Config{
		Records:        w.records,
		Runs:           1,
		DatasetSeed:    seed,
		DisableNoise:   true,
		CollectMetrics: true,
	}
	if w.zeroCosts {
		z := simcost.ZeroCosts()
		cfg.Costs = &z
	}
	if w.rate > 0 {
		cfg.Ingest = harness.IngestStream
		cfg.RateRecordsPerSec = w.rate
	}
	return cfg
}

// sendWindowS is the sender's scheduled window: the time the offered
// rate needs for the whole dataset. A preload sender is due to have
// sent everything at once, so its window is 0.
func (w workload) sendWindowS() float64 {
	if w.rate <= 0 {
		return 0
	}
	return float64(w.records) / float64(w.rate)
}
