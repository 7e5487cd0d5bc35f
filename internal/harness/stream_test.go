package harness

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"beambench/internal/beam"
	"beambench/internal/broker"
	"beambench/internal/queries"
	"beambench/internal/simcost"
)

// runModeOutputs executes one setup's phases 1+2 on a fresh cost-free
// broker — preloading the input topic or streaming into it concurrently
// with the engine, exactly as runSingle does — and returns the output
// topic's payloads in append order.
func runModeOutputs(t *testing.T, r *Runner, setup Setup, mode IngestMode) []string {
	t.Helper()
	b := broker.New()
	topicCfg := broker.TopicConfig{Partitions: 1, ReplicationFactor: 1, Timestamps: broker.LogAppendTime}
	for _, topic := range []string{inputTopic, outputTopic} {
		if err := b.CreateTopic(topic, topicCfg); err != nil {
			t.Fatal(err)
		}
	}
	sim := simcost.Disabled()
	w := queries.Workload{
		Broker:       b,
		InputTopic:   inputTopic,
		OutputTopic:  outputTopic,
		Seed:         r.cfg.SampleSeed,
		InputRecords: int64(len(r.dataset)),
	}
	senderDone := make(chan error, 1)
	if mode == IngestStream {
		go func() { senderDone <- r.ingest(context.Background(), b, sim) }()
	} else {
		senderDone <- r.ingest(context.Background(), b, sim)
	}
	if err := r.execute(context.Background(), setup, w, sim, nil); err != nil {
		t.Fatalf("%s %s (%s): %v", setup.Label(), setup.Query, mode, err)
	}
	if err := <-senderDone; err != nil {
		t.Fatalf("%s %s (%s): sender: %v", setup.Label(), setup.Query, mode, err)
	}
	return outputPayloads(t, b)
}

func outputPayloads(t *testing.T, b *broker.Broker) []string {
	t.Helper()
	recs, err := b.Records(outputTopic, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(recs))
	for i, rec := range recs {
		out[i] = string(rec.Value)
	}
	return out
}

// equalOutputs compares two output topics byte for byte. At parallelism
// 1 every engine appends deterministically, so order must match exactly;
// above 1 parallel sink tasks interleave their appends into the single
// output partition nondeterministically (within one mode as much as
// across modes), so the comparison is as multisets.
func equalOutputs(a, b []string, parallelism int) bool {
	if len(a) != len(b) {
		return false
	}
	if parallelism > 1 {
		a, b = append([]string(nil), a...), append([]string(nil), b...)
		sort.Strings(a)
		sort.Strings(b)
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStreamModeMatchesPreloadOutputs is the acceptance property of
// streaming ingestion: for every runner (the three engines through both
// APIs, plus the direct runner below), every query and every
// parallelism, running the data sender concurrently with the engine
// produces output byte-identical to preloading the topic first.
func TestStreamModeMatchesPreloadOutputs(t *testing.T) {
	zero := simcost.ZeroCosts()
	r, err := New(Config{Records: 500, Runs: 1, Costs: &zero, DisableNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range Systems() {
		for _, api := range APIs() {
			for _, q := range queries.All() {
				for _, par := range []int{1, 2} {
					setup := Setup{System: sys, API: api, Query: q, Parallelism: par}
					t.Run(fmt.Sprintf("%s/%s", setup.Label(), q), func(t *testing.T) {
						preload := runModeOutputs(t, r, setup, IngestPreload)
						stream := runModeOutputs(t, r, setup, IngestStream)
						if len(preload) == 0 && q != queries.Grep {
							t.Fatal("preload run produced no output; workload too small")
						}
						if !equalOutputs(preload, stream, par) {
							t.Errorf("stream outputs (%d records) differ from preload (%d records)",
								len(stream), len(preload))
						}
					})
				}
			}
		}
	}
}

// TestDirectRunnerStreamMatchesPreload covers the fourth Beam source
// path: the direct runner's KafkaRead consuming a topic that is still
// filling, bounded by beam.Options.TargetRecords.
func TestDirectRunnerStreamMatchesPreload(t *testing.T) {
	zero := simcost.ZeroCosts()
	r, err := New(Config{Records: 500, Runs: 1, Costs: &zero, DisableNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	runDirect := func(t *testing.T, q queries.Query, mode IngestMode) []string {
		t.Helper()
		b := broker.New()
		topicCfg := broker.TopicConfig{Partitions: 1, ReplicationFactor: 1, Timestamps: broker.LogAppendTime}
		for _, topic := range []string{inputTopic, outputTopic} {
			if err := b.CreateTopic(topic, topicCfg); err != nil {
				t.Fatal(err)
			}
		}
		w := queries.Workload{
			Broker: b, InputTopic: inputTopic, OutputTopic: outputTopic,
			Seed: r.cfg.SampleSeed, InputRecords: int64(len(r.dataset)),
		}
		p, err := queries.BeamPipeline(w, q)
		if err != nil {
			t.Fatal(err)
		}
		runner, err := beam.GetRunner("direct")
		if err != nil {
			t.Fatal(err)
		}
		senderDone := make(chan error, 1)
		if mode == IngestStream {
			go func() { senderDone <- r.ingest(context.Background(), b, simcost.Disabled()) }()
		} else {
			senderDone <- r.ingest(context.Background(), b, simcost.Disabled())
		}
		if _, err := runner.Run(context.Background(), p, beam.Options{TargetRecords: int64(len(r.dataset))}); err != nil {
			t.Fatal(err)
		}
		if err := <-senderDone; err != nil {
			t.Fatal(err)
		}
		return outputPayloads(t, b)
	}
	for _, q := range queries.All() {
		t.Run(q.String(), func(t *testing.T) {
			preload := runDirect(t, q, IngestPreload)
			stream := runDirect(t, q, IngestStream)
			if !equalOutputs(preload, stream, 1) {
				t.Errorf("direct runner: stream outputs (%d) differ from preload (%d)",
					len(stream), len(preload))
			}
		})
	}
}

// TestStreamSenderSlowerThanEngine paces the sender well below what the
// engine can drain: the run must still terminate with the full output,
// and the output topic's LogAppendTime span must stretch to roughly the
// sending window — the sustained-load shape where execution time is
// rate-bound, not throughput-bound.
func TestStreamSenderSlowerThanEngine(t *testing.T) {
	zero := simcost.ZeroCosts()
	r, err := New(Config{
		Records:           300,
		Runs:              1,
		Costs:             &zero,
		DisableNoise:      true,
		Ingest:            IngestStream,
		RateRecordsPerSec: 3000, // 300 records -> a ~100ms sending window
	})
	if err != nil {
		t.Fatal(err)
	}
	setup := Setup{System: SystemFlink, API: APINative, Query: queries.Identity, Parallelism: 1}
	res, err := r.RunSingle(setup, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.OutputRecords != 300 {
		t.Errorf("OutputRecords = %d, want 300", res.OutputRecords)
	}
	// The engine is cost-free, so in preload mode the span would be a
	// few producer lingers at most; rate-bound it must cover most of the
	// 100ms window.
	if res.ExecutionTime < 50*time.Millisecond {
		t.Errorf("ExecutionTime = %v, want >= 50ms (rate-bound span)", res.ExecutionTime)
	}
	if res.WallTime < 80*time.Millisecond {
		t.Errorf("WallTime = %v, want >= 80ms (the sender alone needs ~100ms)", res.WallTime)
	}
}

// TestStreamSenderFasterThanEngine bursts the sender unthrottled while
// the engine pays real per-record costs: sources must drain the backlog
// that builds up and still terminate with the full output.
func TestStreamSenderFasterThanEngine(t *testing.T) {
	r, err := New(Config{
		Records:      2_000,
		Runs:         1,
		DisableNoise: true,
		Ingest:       IngestStream,
		// RateRecordsPerSec 0: unthrottled, the sender finishes far
		// ahead of the cost-charged engine.
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, setup := range []Setup{
		{System: SystemSpark, API: APINative, Query: queries.Identity, Parallelism: 1},
		{System: SystemApex, API: APIBeam, Query: queries.Grep, Parallelism: 1},
	} {
		res, err := r.RunSingle(setup, 0)
		if err != nil {
			t.Fatalf("%s %s: %v", setup.Label(), setup.Query, err)
		}
		want := int64(2_000)
		if setup.Query == queries.Grep {
			want = int64(r.GrepHits())
		}
		if res.OutputRecords != want {
			t.Errorf("%s %s: OutputRecords = %d, want %d", setup.Label(), setup.Query, res.OutputRecords, want)
		}
	}
}

// TestStreamModeNondeterminismGuardStillHolds runs a full cell in
// stream mode: repeated runs must keep producing identical counts, so
// the RunCell guard applies unchanged to sustained-load scenarios.
func TestStreamModeNondeterminismGuardStillHolds(t *testing.T) {
	zero := simcost.ZeroCosts()
	r, err := New(Config{
		Records: 400, Runs: 2, Costs: &zero, DisableNoise: true,
		Ingest: IngestStream, RateRecordsPerSec: 100_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	results, err := r.RunCell(Setup{System: SystemFlink, API: APIBeam, Query: queries.Projection, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	for _, res := range results {
		if res.OutputRecords != 400 {
			t.Errorf("run %d: OutputRecords = %d, want 400", res.Run, res.OutputRecords)
		}
	}
}

func TestIngestModeParseAndString(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want IngestMode
	}{
		{"", IngestPreload},
		{"preload", IngestPreload},
		{"stream", IngestStream},
	} {
		got, err := ParseIngestMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseIngestMode(%q) = (%v, %v), want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseIngestMode("bogus"); err == nil {
		t.Error("ParseIngestMode accepted a bogus mode")
	}
	if IngestPreload.String() != "preload" || IngestStream.String() != "stream" {
		t.Errorf("IngestMode strings = %q, %q", IngestPreload, IngestStream)
	}
}

// TestStreamModeCancellationStopsPacedSender pins the cancellation
// path: a cancelled context must stop the rate-paced sender promptly
// and unblock the target-bound engine sources, instead of pacing out
// the rest of the workload in real time (nearly a minute here).
func TestStreamModeCancellationStopsPacedSender(t *testing.T) {
	zero := simcost.ZeroCosts()
	r, err := New(Config{
		Records: 50_000, Runs: 1, Costs: &zero, DisableNoise: true,
		Ingest: IngestStream, RateRecordsPerSec: 1_000, // ~50s if run to completion
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = r.runSingle(ctx, Setup{System: SystemFlink, API: APINative, Query: queries.Identity, Parallelism: 1}, 0)
	if err == nil {
		t.Fatal("cancelled stream-mode run reported success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled run took %v, want a prompt return", elapsed)
	}
}

// TestBuildReportOutputRecordsAnchorsRunZero is the regression test for
// the last-write-wins bug: when per-run counts legitimately vary (a
// Sample cell), Cell.OutputRecords must be run 0's count — the value the
// RunCell nondeterminism guard anchors on — regardless of aggregation
// order.
func TestBuildReportOutputRecordsAnchorsRunZero(t *testing.T) {
	setup := Setup{System: SystemFlink, API: APINative, Query: queries.Sample, Parallelism: 1}
	mk := func(run int, outputs int64) RunResult {
		return RunResult{Setup: setup, Run: run, ExecutionTime: time.Second, OutputRecords: outputs}
	}
	for name, results := range map[string][]RunResult{
		"in order":     {mk(0, 160), mk(1, 158), mk(2, 163)},
		"out of order": {mk(2, 163), mk(1, 158), mk(0, 160)},
	} {
		rep, err := BuildReport(Config{Records: 400, Runs: 3}, results)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cell, ok := rep.Cell(setup)
		if !ok {
			t.Fatalf("%s: cell missing", name)
		}
		if cell.OutputRecords != 160 {
			t.Errorf("%s: Cell.OutputRecords = %d, want run 0's 160", name, cell.OutputRecords)
		}
		if len(cell.OutputRecordsPerRun) != 3 {
			t.Errorf("%s: OutputRecordsPerRun = %v, want 3 entries", name, cell.OutputRecordsPerRun)
		}
	}
}

func TestConfigRejectsBadStreamSettings(t *testing.T) {
	if _, err := New(Config{Records: 10, Ingest: IngestStream, RateRecordsPerSec: -1}); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := New(Config{Records: 10, Ingest: IngestMode(7)}); err == nil {
		t.Error("invalid ingest mode accepted")
	}
	if _, err := New(Config{Records: 10, Ingest: IngestPreload, RateRecordsPerSec: 100}); err == nil {
		t.Error("rate without stream mode accepted (the report would claim an unapplied offered load)")
	}
}
