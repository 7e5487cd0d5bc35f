package main

import (
	"math"
	"sort"
	"strings"
)

type metricDef struct{ name, unit string }

// endToEndMetrics are printed with --trace 0. Lower is better for all.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"wall_native_s", "s"},
	{"wall_beam_s", "s"},
	{"latency_p50_s", "s"},
	{"latency_p99_s", "s"},
	{"peak_mem_mb", "MB"},
}

// perLayerMetrics are printed with --trace 1; README.md says which
// end-to-end metric each should move.
var perLayerMetrics = []metricDef{
	{"harness.ingest_s", "s"},
	{"harness.cluster_launch_s", "s"},
	{"harness.execute_s", "s"},
	{"harness.result_calc_s", "s"},
	{"harness.run_self_s", "s"},
	{"harness.execute_self_s", "s"},
	{"harness.sender_late_s", "s"},
	{"harness.span_native_s", "s"},
	{"harness.span_beam_s", "s"},
	{"harness.span_ratio_min", "ratio"},
	{"harness.alloc_mb", "MB"},
	{"harness.failure_ratio", "ratio"},
	{"flink.wall_s", "s"},
	{"spark.wall_s", "s"},
	{"apex.wall_s", "s"},
	{"flink.subtask_s", "s"},
	{"spark.batch_s", "s"},
	{"spark.batches", "count"},
	{"apex.partition_s", "s"},
	{"aol.generate_s", "s"},
	{"queries.reference_s", "s"},
	{"broker.produce_ns", "ns/record"},
	{"broker.produce_allocs", "allocs/record"},
	{"broker.fetch_ns", "ns/record"},
	{"broker.input_lag_max", "records"},
	{"beam.coder_ns", "ns/record"},
	{"beam.coder_allocs", "allocs/record"},
	{"graphx.gbk_ns", "ns/record"},
	{"graphx.gbk_allocs", "allocs/record"},
	{"graphx.panes", "count"},
	{"watermark.fire_ns.open3", "ns/record"},
	{"watermark.fire_ns.open10k", "ns/record"},
	{"watermark.lag_max_s", "event-s"},
	{"metrics.observations", "count"},
	{"metrics.sketch_insert_ns", "ns/record"},
	{"obs.trace_overhead", "ratio"},
	{"obs.dropped_events", "count"},
}

// p99MinObs is the fewest observations a cell needs to count towards
// latency_p99_s: at least ten samples beyond the 99th percentile.
const p99MinObs = 1000

// endToEnd computes one untraced pass's end-to-end metrics, except
// setup_s, which is the median over every set-up of the run.
func endToEnd(p passRun) map[string]float64 {
	m := map[string]float64{
		"wall_s":      p.WallS,
		"peak_mem_mb": p.MaxRSSMB,
	}
	var p50, p99 []float64
	for _, c := range p.Cells {
		if c.Err != "" {
			continue
		}
		if c.Beam {
			m["wall_beam_s"] += c.WallS
		} else {
			m["wall_native_s"] += c.WallS
		}
		if c.Obs > 0 {
			p50 = append(p50, c.P50)
		}
		if c.Obs >= p99MinObs {
			p99 = append(p99, c.P99)
		}
	}
	m["latency_p50_s"] = geomean(p50)
	m["latency_p99_s"] = geomean(p99)
	return m
}

// layerFromPasses computes the per-layer metrics of one round: an
// untraced pass (plain) and the traced pass that followed it.
func layerFromPasses(w workload, plain, traced passRun) map[string]float64 {
	ts := traced.Trace
	m := map[string]float64{
		"harness.ingest_s":         ts.SpanS["harness.ingest"],
		"harness.cluster_launch_s": ts.SpanS["harness.cluster_launch"],
		"harness.execute_s":        ts.SpanS["harness.execute"],
		"harness.result_calc_s":    ts.SpanS["harness.result_calc"],
		"harness.run_self_s":       ts.SelfS["harness.run"],
		"harness.execute_self_s":   ts.SelfS["harness.execute"],
		"harness.alloc_mb":         plain.AllocMB,
		"flink.subtask_s":          ts.SpanS["flink.subtask"],
		"spark.batch_s":            ts.SpanS["spark.batch"],
		"spark.batches":            float64(ts.Batches),
		"apex.partition_s":         ts.SpanS["apex.partition"],
		"graphx.panes":             float64(ts.Panes),
		"obs.trace_overhead":       traced.WallS / plain.WallS,
		"obs.dropped_events":       float64(ts.Dropped),
		"harness.span_ratio_min":   math.Inf(1),
		"flink.wall_s":             0,
		"spark.wall_s":             0,
		"apex.wall_s":              0,
		"harness.span_native_s":    0,
		"harness.span_beam_s":      0,
		"metrics.observations":     0,
		"broker.input_lag_max":     0,
		"watermark.lag_max_s":      0,
	}
	if n := len(traced.Cells); n > 0 {
		m["harness.sender_late_s"] = ts.SpanS["harness.ingest"]/float64(n) - w.sendWindowS()
	}
	for _, c := range plain.Cells {
		if c.Err != "" {
			continue
		}
		m[strings.ToLower(c.System)+".wall_s"] += c.WallS
		if c.Beam {
			m["harness.span_beam_s"] += c.SpanS
		} else {
			m["harness.span_native_s"] += c.SpanS
		}
		if c.Obs >= p99MinObs && c.WallS > 0 {
			m["harness.span_ratio_min"] = math.Min(m["harness.span_ratio_min"], c.SpanS/c.WallS)
		}
		m["metrics.observations"] += float64(c.Obs)
	}
	for _, c := range traced.Cells {
		for _, g := range c.Gauges {
			switch {
			case strings.HasPrefix(g.Name, "consumer-lag/input/"):
				m["broker.input_lag_max"] = math.Max(m["broker.input_lag_max"], g.Max)
			case strings.HasPrefix(g.Name, "watermark-lag/"):
				m["watermark.lag_max_s"] = math.Max(m["watermark.lag_max_s"], g.Max)
			}
		}
	}
	return m
}

// medians reduces each metric to its median over the rounds.
func medians(rounds []map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for k := range rounds[0] {
		vs := make([]float64, 0, len(rounds))
		for _, r := range rounds {
			vs = append(vs, r[k])
		}
		out[k] = median(vs)
	}
	return out
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean is the geometric mean of the positive values; cells spread
// over orders of magnitude, so an arithmetic mean would follow the
// slowest few alone.
func geomean(vs []float64) float64 {
	var sum float64
	n := 0
	for _, v := range vs {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(sum / float64(n))
}
