package harness

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"beambench/internal/beam"
	"beambench/internal/obs"
	"beambench/internal/queries"
	"beambench/internal/simcost"
)

// TestUnsupportedCellRecordedAsSkipped stubs one native executor to
// reject its query with the shared beam.ErrUnsupported sentinel and
// checks the satellite contract: the matrix keeps running, the cell is
// recorded as skipped-with-reason, figures render it as "skipped", and
// the JSON report carries the reason.
func TestUnsupportedCellRecordedAsSkipped(t *testing.T) {
	orig := nativeExecutors[SystemApex]
	defer func() { nativeExecutors[SystemApex] = orig }()
	nativeExecutors[SystemApex] = func(r *Runner, setup Setup, w queries.Workload, sim *simcost.Simulator, tel *obs.Run) error {
		return fmt.Errorf("stub: %w: pretend the engine cannot run %s", beam.ErrUnsupported, setup.Query)
	}

	cfg := fastConfig()
	cfg.Records = 200
	cfg.Runs = 2
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results, err := r.RunQuery(queries.Grep)
	if err != nil {
		t.Fatalf("unsupported cell aborted the matrix: %v", err)
	}

	rep, err := BuildReport(r.Config(), results)
	if err != nil {
		t.Fatal(err)
	}
	// 12 cells: the 4 Apex-native ones skipped (2 parallelisms), the
	// rest (Apex Beam + both Flink/Spark APIs) ran normally.
	skipped, ran := 0, 0
	for _, c := range rep.Cells {
		if c.Skipped {
			skipped++
			if c.Setup.System != SystemApex || c.Setup.API != APINative {
				t.Errorf("unexpected skipped cell %s", c.Setup.Label())
			}
			if !strings.Contains(c.SkipReason, "unsupported transform") {
				t.Errorf("skip reason %q lacks the sentinel text", c.SkipReason)
			}
			if len(c.TimesSec) != 0 {
				t.Errorf("skipped cell %s carries %d timings", c.Setup.Label(), len(c.TimesSec))
			}
		} else {
			ran++
			if len(c.TimesSec) != cfg.Runs {
				t.Errorf("cell %s has %d runs, want %d", c.Setup.Label(), len(c.TimesSec), cfg.Runs)
			}
		}
	}
	if skipped != 2 || ran != 10 {
		t.Fatalf("skipped=%d ran=%d, want 2/10", skipped, ran)
	}

	// Mean and the derived metrics surface the skip as ErrSkippedCell.
	if _, err := rep.Mean(Setup{System: SystemApex, API: APINative, Query: queries.Grep, Parallelism: 1}); err == nil {
		t.Error("Mean of a skipped cell succeeded")
	}
	if _, err := rep.SlowdownFactor(SystemApex, queries.Grep); err == nil {
		t.Error("SlowdownFactor over a skipped cell succeeded")
	}

	// Figure rendering degrades to a "skipped" row instead of erroring.
	fig, err := rep.FormatFigure(9)
	if err != nil {
		t.Fatalf("FormatFigure with skipped cells: %v", err)
	}
	if !strings.Contains(fig, "skipped") {
		t.Errorf("figure does not render the skipped cell:\n%s", fig)
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"skipped": true`, `"skipReason"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("JSON report lacks %q", want)
		}
	}
}

// TestNonUnsupportedErrorStillAborts keeps the skip narrow: any failure
// other than beam.ErrUnsupported must abort the cell as before.
func TestNonUnsupportedErrorStillAborts(t *testing.T) {
	orig := nativeExecutors[SystemApex]
	defer func() { nativeExecutors[SystemApex] = orig }()
	nativeExecutors[SystemApex] = func(r *Runner, setup Setup, w queries.Workload, sim *simcost.Simulator, tel *obs.Run) error {
		return fmt.Errorf("stub: engine exploded")
	}
	cfg := fastConfig()
	cfg.Records = 200
	cfg.Runs = 1
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunCell(Setup{System: SystemApex, API: APINative, Query: queries.Grep, Parallelism: 1}); err == nil {
		t.Error("real failure was swallowed as a skip")
	}
}
