package main

import (
	"strings"
	"testing"
	"time"

	"beambench/internal/obs"
	"beambench/internal/queries"
)

// A run that errors is counted, not fatal: the pass finishes its other
// cells, and the failure ratio rises above 0.
func TestFailedRunRaisesFailureRatio(t *testing.T) {
	w := workload{
		name:      "test",
		records:   300,
		queries:   []queries.Query{queries.Identity, queries.Query(99)},
		zeroCosts: true,
	}
	res, err := runPass(w, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	seed, sampleSeed, err := seeds(1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := dataset(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	var tl tally
	tl.add(res.Cells, expectedOutputs(w, data, sampleSeed))
	if tl.attempted != 24 {
		t.Fatalf("attempted %d runs, want 24", tl.attempted)
	}
	if tl.failed != 12 {
		t.Fatalf("failed %d runs, want the 12 of the invalid query: %v", tl.failed, tl.failures)
	}
	for _, c := range res.Cells {
		if c.Query == queries.Identity.String() && (c.Err != "" || c.Output != 300 || c.Obs != 300) {
			t.Errorf("%s: err=%q output=%d obs=%d, want 300 checked outputs", c.Label, c.Err, c.Output, c.Obs)
		}
	}
}

// A run whose output disagrees with the reference fails even though the
// harness returned no error.
func TestMismatchedOutputFails(t *testing.T) {
	expected := map[string]int64{"grep": 60}
	var tl tally
	tl.add([]cellResult{
		{Label: "a", Query: "grep", Output: 60, Obs: 60},
		{Label: "b", Query: "grep", Output: 59, Obs: 59},
		{Label: "c", Query: "grep", Output: 60, Obs: 58},
		{Label: "d", Query: "join", Output: 1, Obs: 1},
	}, expected)
	if tl.attempted != 4 || tl.failed != 3 {
		t.Fatalf("attempted=%d failed=%d, want 4 and 3: %v", tl.attempted, tl.failed, tl.failures)
	}
	if !strings.HasPrefix(tl.failures[0], "b:") {
		t.Errorf("first failure %q, want cell b", tl.failures[0])
	}
}

// Self time subtracts the union of nested spans, so overlapping engine
// spans are not subtracted twice.
func TestSummarizeTraceSelfTime(t *testing.T) {
	ms := time.Millisecond
	scope := "Flink P1 Join/run0/"
	evs := []obs.Event{
		{Track: scope + "harness", Name: "run", Phase: obs.PhaseComplete, Start: 0, Dur: 100 * ms},
		{Track: scope + "sender", Name: "ingest", Phase: obs.PhaseComplete, Start: 0, Dur: 10 * ms},
		{Track: scope + "harness", Name: "execute", Phase: obs.PhaseComplete, Start: 10 * ms, Dur: 80 * ms},
		{Track: scope + "flink/src/subtask-0", Name: "subtask", Phase: obs.PhaseComplete, Start: 20 * ms, Dur: 50 * ms},
		{Track: scope + "flink/src/subtask-1", Name: "subtask", Phase: obs.PhaseComplete, Start: 30 * ms, Dur: 50 * ms},
		{Track: scope + "panes/GroupByKey", Name: "pane", Phase: obs.PhaseInstant, Start: 40 * ms},
	}
	ts := summarizeTrace(evs, 0)
	near := func(got, want float64) bool { return got > want-1e-9 && got < want+1e-9 }
	if got := ts.SelfS["harness.execute"]; !near(got, 0.020) {
		t.Errorf("execute self time %v s, want 0.020", got)
	}
	if got := ts.SelfS["harness.run"]; !near(got, 0.010) {
		t.Errorf("run self time %v s, want 0.010", got)
	}
	if got := ts.SpanS["flink.subtask"]; !near(got, 0.100) {
		t.Errorf("subtask time %v s, want 0.100", got)
	}
	if ts.Panes != 1 {
		t.Errorf("panes %d, want 1", ts.Panes)
	}
}
