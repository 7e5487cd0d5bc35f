// Command perfbench is the repository's benchmark. It drives the real
// program through harness.Runner, one matrix cell at a time, checks every
// run's output against the queries reference, and prints end-to-end
// metrics (--trace 0) or per-layer metrics (--trace 1) for one workload.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload paper-stateless --seed 1 --seconds 35 --trace 0
//
// Each pass runs in a child process of this binary, so a pass's peak
// RSS is its own and passes share no heap. README.md documents the
// workloads, the metrics and how they relate.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: paper-stateless, stateful-residual or stateful-stream")
	seed := fs.Uint64("seed", 1, "dataset seed, passed to harness.Config.DatasetSeed")
	seconds := fs.Int("seconds", 35, "measuring time of the run")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics, 1 per-layer metrics from a traced pass and layer calls")
	pass := fs.String("pass", "", "run one pass (plain or traced) and print it as JSON; used by the parent process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *pass != "" {
		res, err := runPass(w, *seed, *pass == "traced")
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: pass:", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	out, err := measureRun(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// passRun is a finished pass with the child process's peak RSS.
type passRun struct {
	passResult
	MaxRSSMB float64
}

// measureRun runs passes until the measuring time is spent, checks
// every cell against the reference, and reports the medians over passes.
// With --trace 0 another pass starts while half of the longest so far
// still fits. With --trace 1 the layer calls come first and a round (an
// untraced and a traced pass) starts only if the longest round so far
// fits whole. Either way at least one pass or round runs.
func measureRun(w workload, seed uint64, budget time.Duration, traced bool, log io.Writer) (result, error) {
	start := time.Now()
	seed, sampleSeed, err := seeds(seed)
	if err != nil {
		return result{}, err
	}
	data, err := dataset(w, seed)
	if err != nil {
		return result{}, err
	}
	expected := expectedOutputs(w, data, sampleSeed)
	fmt.Fprintf(log, "perfbench workload=%s seed=%d records=%d nproc=%d GOMAXPROCS=%d go=%s\n",
		w.name, seed, w.records, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	var layers map[string]float64
	if traced {
		if layers, err = layerMetrics(w, seed, sampleSeed); err != nil {
			return result{}, err
		}
	}
	var t tally
	var rounds []map[string]float64
	var setups, walls []float64
	var longest time.Duration
	fits := func() bool {
		if traced {
			return time.Since(start)+longest <= budget
		}
		return time.Since(start)+longest/2 <= budget
	}
	for len(rounds) == 0 || fits() {
		roundStart := time.Now()
		plain, err := spawnPass(w, seed, "plain")
		if err != nil {
			return result{}, err
		}
		t.add(plain.Cells, expected)
		setups = append(setups, plain.SetupS...)
		walls = append(walls, plain.WallS)
		var m map[string]float64
		if traced {
			tp, err := spawnPass(w, seed, "traced")
			if err != nil {
				return result{}, err
			}
			t.add(tp.Cells, expected)
			m = layerFromPasses(w, plain, tp)
			fmt.Fprintf(log, "  traced pass: %d events, %d dropped\n", tp.Trace.Events, tp.Trace.Dropped)
		} else {
			m = endToEnd(plain)
		}
		rounds = append(rounds, m)
		longest = max(longest, time.Since(roundStart))
	}

	m := medians(rounds)
	defs := endToEndMetrics
	if traced {
		defs = perLayerMetrics
		maps.Copy(m, layers)
		m["harness.failure_ratio"] = float64(t.failed) / float64(t.attempted)
	} else {
		m["setup_s"] = median(setups)
	}
	out := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(log, "  %-28s %14.6g %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(log, "  rounds=%d attempted=%d failed=%d elapsed=%.1fs untraced pass walls=%.3f\n",
		len(rounds), t.attempted, t.failed, time.Since(start).Seconds(), walls)
	for _, f := range t.failures {
		fmt.Fprintln(log, "  FAILED", f)
	}
	return out, nil
}

// spawnPass runs one pass in a child process and waits for it.
func spawnPass(w workload, seed uint64, mode string) (passRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return passRun{}, err
	}
	cmd := exec.Command(exe, "-pass", mode, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10))
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return passRun{}, fmt.Errorf("%s pass: %w", mode, err)
	}
	var p passRun
	if err := json.Unmarshal(bytes.TrimSpace(raw), &p.passResult); err != nil {
		return passRun{}, fmt.Errorf("%s pass output: %w", mode, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return passRun{}, errors.New("no resource usage for the pass process")
	}
	p.MaxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	return p, nil
}

// tally counts attempted and failed runs. A run fails when it errored,
// was skipped, or its output count or paired latency observations
// differ from the queries reference.
type tally struct {
	attempted, failed int
	failures          []string
}

func (t *tally) add(cells []cellResult, expected map[string]int64) {
	for _, c := range cells {
		t.attempted++
		want, ok := expected[c.Query]
		var why string
		switch {
		case c.Err != "":
			why = c.Err
		case !ok:
			why = "no reference output for " + c.Query
		case c.Output != want:
			why = fmt.Sprintf("%d output records, reference has %d", c.Output, want)
		case c.Obs != want:
			why = fmt.Sprintf("%d latency observations, reference has %d outputs", c.Obs, want)
		default:
			continue
		}
		t.failed++
		t.failures = append(t.failures, c.Label+": "+why)
	}
}
