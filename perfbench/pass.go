package main

import (
	"runtime"
	"sort"
	"strings"
	"time"

	"beambench/internal/harness"
	"beambench/internal/obs"
)

// setupReps is how often a pass times harness.New; a single set-up is
// tens of milliseconds and varies too much to report alone.
const setupReps = 3

// cellResult is one matrix cell's run within a pass.
type cellResult struct {
	Label  string `json:"label"`
	System string `json:"system"`
	Beam   bool   `json:"beam"`
	Query  string `json:"query"`
	// Err is the error RunSingle returned, including a setup the
	// runner does not support.
	Err    string  `json:"err,omitempty"`
	Output int64   `json:"output"`
	WallS  float64 `json:"wallS"`
	SpanS  float64 `json:"spanS"`
	// Obs is the number of latency observations the harness paired
	// with the reference; P50 and P99 are the sketch's quantiles.
	Obs    int64              `json:"obs"`
	P50    float64            `json:"p50"`
	P99    float64            `json:"p99"`
	Gauges []obs.GaugeSummary `json:"gauges,omitempty"`
}

// passResult is what one pass process reports to the parent.
type passResult struct {
	SetupS  []float64    `json:"setupS"`
	WallS   float64      `json:"wallS"`
	AllocMB float64      `json:"allocMB"`
	Cells   []cellResult `json:"cells"`
	Trace   *traceStats  `json:"trace,omitempty"`
}

// runPass runs every cell of the workload once, one at a time, on a
// fresh harness.Runner. A cell that errors or is skipped is recorded
// and the pass goes on. With traced set the runner records spans,
// instants and gauges into a tracer sized so that nothing is dropped.
func runPass(w workload, seed uint64, traced bool) (passResult, error) {
	cfg := w.config(seed)
	var tr *obs.Tracer
	if traced {
		tr = obs.NewTracer(traceCapacity(w))
		cfg.Trace = tr
	}
	var res passResult
	var r *harness.Runner
	for range setupReps {
		start := time.Now()
		var err error
		r, err = harness.New(cfg)
		if err != nil {
			return res, err
		}
		res.SetupS = append(res.SetupS, time.Since(start).Seconds())
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var ok []harness.RunResult
	setups := r.MatrixSetups(w.queries)
	for _, setup := range setups {
		out, err := r.RunSingle(setup, 0)
		c := cellResult{
			Label:  setup.Label() + " " + setup.Query.String(),
			System: setup.System.String(),
			Beam:   setup.API == harness.APIBeam,
			Query:  setup.Query.String(),
		}
		if err != nil {
			c.Err = err.Error()
		} else {
			c.Output = out.OutputRecords
			c.WallS = out.WallTime.Seconds()
			c.SpanS = out.ExecutionTime.Seconds()
			c.Gauges = out.Gauges
			ok = append(ok, out)
		}
		res.Cells = append(res.Cells, c)
	}
	res.WallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	res.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)

	rep, err := harness.BuildReport(r.Config(), ok)
	if err != nil {
		return res, err
	}
	rep.AttachMetrics(r.Metrics())
	for i, setup := range setups {
		if res.Cells[i].Err != "" {
			continue
		}
		if cell, found := rep.Cell(setup); found && cell.Latency != nil {
			res.Cells[i].Obs = cell.Latency.Count
			res.Cells[i].P50 = cell.Latency.P50
			res.Cells[i].P99 = cell.Latency.P99
		}
	}
	if traced {
		res.Trace = summarizeTrace(tr.Events(), tr.Dropped())
	}
	return res, nil
}

// traceCapacity sizes the traced pass's event ring with room to spare.
// GroupByKey records one instant per fired pane, two per input record
// in each Beam cell of the sliding-window query; spans, drain instants
// and gauge samples add at most a few thousand per cell.
func traceCapacity(w workload) int {
	return 8*w.records*len(w.queries)*len(harness.Systems()) + 1<<16
}

// traceStats are the per-layer figures of a traced pass, computed from
// the spans, instants and dropped count the obs tracer recorded.
type traceStats struct {
	Events  int `json:"events"`
	Dropped int `json:"dropped"`
	// SpanS sums span durations by metric name; SelfS sums each harness
	// span's self time: its duration minus the part of it covered by
	// spans nested inside it.
	SpanS   map[string]float64 `json:"spanS"`
	SelfS   map[string]float64 `json:"selfS"`
	Batches int                `json:"batches"`
	Panes   int                `json:"panes"`
}

// spanMetric maps a run-local span (track without the cell/run scope,
// span name) to its per-layer metric name and its nesting depth in the
// run: the run span holds ingest, execution and result calculation,
// execution holds cluster launch, and engine work sits innermost.
func spanMetric(track, name string) (metric string, depth int, ok bool) {
	switch {
	case track == "harness" && name == "run":
		return "harness.run", 0, true
	case track == "sender" && name == "ingest":
		return "harness.ingest", 1, true
	case track == "harness" && name == "execute":
		return "harness.execute", 1, true
	case track == "harness" && name == "result-calc":
		return "harness.result_calc", 1, true
	case track == "harness" && name == "cluster-launch":
		return "harness.cluster_launch", 2, true
	case strings.HasPrefix(track, "flink/") && name == "subtask":
		return "flink.subtask", 3, true
	case track == "spark/driver" && (strings.HasPrefix(name, "batch-") || name == "flush-batch"):
		return "spark.batch", 3, true
	case strings.HasPrefix(track, "apex/") && name == "partition":
		return "apex.partition", 3, true
	}
	return "", 0, false
}

type scopedSpan struct {
	metric     string
	depth      int
	start, end time.Duration
}

// summarizeTrace folds a traced pass's events into traceStats. The
// harness scopes every run's tracks as "<cell>/run<N>/<track>"; cell
// labels contain no '/', so the first two path elements are the scope.
func summarizeTrace(evs []obs.Event, dropped uint64) *traceStats {
	ts := &traceStats{
		Events:  len(evs),
		Dropped: int(dropped),
		SpanS:   make(map[string]float64),
		SelfS:   make(map[string]float64),
	}
	byScope := make(map[string][]scopedSpan)
	for _, ev := range evs {
		parts := strings.SplitN(ev.Track, "/", 3)
		if len(parts) < 3 {
			continue
		}
		scope, track := parts[0]+"/"+parts[1], parts[2]
		switch ev.Phase {
		case obs.PhaseInstant:
			if track == "panes/GroupByKey" {
				ts.Panes++
			}
		case obs.PhaseComplete:
			metric, depth, ok := spanMetric(track, ev.Name)
			if !ok {
				continue
			}
			ts.SpanS[metric] += ev.Dur.Seconds()
			if metric == "spark.batch" {
				ts.Batches++
			}
			byScope[scope] = append(byScope[scope], scopedSpan{metric, depth, ev.Start, ev.Start + ev.Dur})
		}
	}
	for _, spans := range byScope {
		for _, s := range spans {
			if s.depth >= 3 {
				continue // engine spans have no children
			}
			var inner [][2]time.Duration
			for _, c := range spans {
				if c.depth > s.depth && c.start >= s.start && c.end <= s.end {
					inner = append(inner, [2]time.Duration{c.start, c.end})
				}
			}
			ts.SelfS[s.metric] += (s.end - s.start - covered(inner)).Seconds()
		}
	}
	return ts
}

// covered is the total length of the union of the intervals.
func covered(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curStart, curEnd time.Duration
	open := false
	for _, x := range iv {
		if open && x[0] <= curEnd {
			curEnd = max(curEnd, x[1])
			continue
		}
		if open {
			total += curEnd - curStart
		}
		curStart, curEnd, open = x[0], x[1], true
	}
	if open {
		total += curEnd - curStart
	}
	return total
}
