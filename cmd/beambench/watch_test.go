package main

import (
	"strings"
	"testing"
	"time"

	"beambench/internal/metrics"
	"beambench/internal/obs"
)

func sampleSnapshot(uptime float64, in, out, lag int64) *obs.Snapshot {
	return &obs.Snapshot{
		Schema:    obs.SnapshotSchemaVersion,
		Records:   1000,
		Runs:      2,
		UptimeSec: uptime,
		Progress:  obs.Progress{Total: 3, Running: 1, Done: 1, Skipped: 1},
		Cells: []obs.CellSnapshot{
			{
				Key: "Flink Beam P2 WindowedCount", State: obs.CellRunning, RunsDone: 1,
				InputRecords: in, OutputRecords: out,
				ConsumerLag:  []obs.LagSample{{Topic: "input", Partition: 0, Lag: lag}},
				WatermarkLag: []obs.WatermarkLag{{Operator: "window", LagSec: 0.25}},
				Latency:      &metrics.LatencySummary{Count: 10, P50: 0.01, P99: 0.123, Max: 0.2},
			},
			{Key: "Spark P1 Identity", State: obs.CellDone, RunsDone: 2, InputRecords: 1000, OutputRecords: 1000},
			{Key: "Apex P1 Grep", State: obs.CellSkipped, SkipReason: "unsupported transform"},
		},
	}
}

func TestRenderFrameFirstAndDelta(t *testing.T) {
	first, state := renderFrame(sampleSnapshot(1.0, 100, 50, 40), nil)
	for _, want := range []string{
		"1000 records x 2 runs",
		"1 running, 1 done, 0 pending, 1 skipped, 0 failed (total 3)",
		"Flink Beam P2 WindowedCount",
		"INGEST/s", "DRAIN/s",
		"0.25s",                 // watermark lag
		"0.123s",                // p99
		"skipped",               // state column
		"unsupported transform", // reason footer
	} {
		if !strings.Contains(first, want) {
			t.Errorf("first frame missing %q:\n%s", want, first)
		}
	}
	// No previous frame: rates render as placeholders.
	if !strings.Contains(first, "-") {
		t.Errorf("first frame should carry rate placeholders:\n%s", first)
	}

	second, _ := renderFrame(sampleSnapshot(2.0, 300, 150, 90), state)
	// 200 more inputs and 100 more outputs over 1s.
	for _, want := range []string{"200", "100", "90+"} {
		if !strings.Contains(second, want) {
			t.Errorf("delta frame missing %q:\n%s", want, second)
		}
	}
	third, _ := renderFrame(sampleSnapshot(2.0, 300, 150, 10), state)
	if !strings.Contains(third, "10-") {
		t.Errorf("falling lag not marked:\n%s", third)
	}
}

func TestRunWatchAgainstLiveServer(t *testing.T) {
	plane := obs.NewPlane(100, 1)
	plane.Expect([]string{"Flink P1 Identity"})
	plane.Cell("Flink P1 Identity").StartRun(nil)
	plane.Cell("Flink P1 Identity").EndRun()
	plane.Cell("Flink P1 Identity").Finish(obs.CellDone, "")
	srv, err := plane.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var sb strings.Builder
	// The matrix is complete, so the watcher renders one frame and exits.
	if err := runWatch(srv.Addr(), 10*time.Millisecond, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, ansiClear) {
		t.Error("frame not preceded by the ANSI clear sequence")
	}
	if !strings.Contains(out, "Flink P1 Identity") || !strings.Contains(out, "done") {
		t.Errorf("dashboard missing the finished cell:\n%s", out)
	}
}

func TestRunWatchBadTarget(t *testing.T) {
	var sb strings.Builder
	if err := runWatch("127.0.0.1:1", 10*time.Millisecond, &sb); err == nil {
		t.Fatal("unreachable target accepted")
	}
}

func TestRunServeFlag(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-figure", "9", "-records", "500", "-runs", "1", "-quiet", "-no-noise",
		"-ingest", "stream", "-serve", "127.0.0.1:0",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Grep Query") {
		t.Errorf("figure output missing under -serve:\n%s", sb.String())
	}
}
