package runners_test

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"beambench/internal/aol"
	"beambench/internal/beam"
	_ "beambench/internal/beam/runners"
	"beambench/internal/broker"
	"beambench/internal/metrics"
	"beambench/internal/obs"
	"beambench/internal/queries"
)

const testRecords = 400

// freshWorkload builds a broker preloaded with a deterministic
// synthetic search log.
func freshWorkload(t testing.TB, seed uint64) queries.Workload {
	t.Helper()
	b := broker.New()
	for _, topic := range []string{"input", "output"} {
		if err := b.CreateTopic(topic, broker.TopicConfig{Partitions: 1}); err != nil {
			t.Fatal(err)
		}
	}
	gen, err := aol.NewGenerator(aol.Config{Records: testRecords, Seed: seed, GrepHits: -1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.NewProducer(broker.ProducerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for {
		rec, ok := gen.Next()
		if !ok {
			break
		}
		if err := p.Send("input", nil, rec.AppendTSV(nil)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	return queries.Workload{Broker: b, InputTopic: "input", OutputTopic: "output", Seed: 7}
}

func outputStrings(t testing.TB, w queries.Workload) []string {
	t.Helper()
	c, err := w.Broker.NewConsumer(broker.ConsumerConfig{MaxPollRecords: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AssignAll(w.OutputTopic); err != nil {
		t.Fatal(err)
	}
	var out []string
	for {
		recs, err := c.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			return out
		}
		for _, r := range recs {
			out = append(out, string(r.Value))
		}
	}
}

// runQuery executes one query through the named registered runner on a
// fresh workload and returns the output topic contents and the result.
func runQuery(t testing.TB, runnerName string, q queries.Query, fusion beam.FusionMode, seed uint64) ([]string, beam.Result) {
	t.Helper()
	w := freshWorkload(t, seed)
	p, err := queries.BeamPipeline(w, q)
	if err != nil {
		t.Fatal(err)
	}
	r, err := beam.GetRunner(runnerName)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(context.Background(), p, beam.Options{Fusion: fusion})
	if err != nil {
		t.Fatalf("runner %s, query %s, fusion %s: %v", runnerName, q, fusion, err)
	}
	return outputStrings(t, w), res
}

func TestRegistryListsAllBundledRunners(t *testing.T) {
	want := []string{"apex", "direct", "flink", "spark"}
	if got := beam.RunnerNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("RunnerNames() = %v, want %v", got, want)
	}
	if _, err := beam.GetRunner("nope"); err == nil {
		t.Error("GetRunner(nope) succeeded, want error")
	}
}

// TestFusedMatchesUnfusedOutputs is the acceptance property of the
// fusion pass: for every runner and every query, forcing fusion on and
// off produces byte-identical output topics, while the fused translation
// uses strictly fewer engine operators.
func TestFusedMatchesUnfusedOutputs(t *testing.T) {
	for _, runnerName := range beam.RunnerNames() {
		for _, q := range queries.All() {
			t.Run(fmt.Sprintf("%s/%s", runnerName, q), func(t *testing.T) {
				fusedOut, fusedRes := runQuery(t, runnerName, q, beam.FusionOn, 42)
				unfusedOut, unfusedRes := runQuery(t, runnerName, q, beam.FusionOff, 42)
				if !reflect.DeepEqual(fusedOut, unfusedOut) {
					t.Fatalf("fused output (%d records) differs from unfused (%d records)",
						len(fusedOut), len(unfusedOut))
				}
				if len(fusedOut) == 0 {
					t.Fatal("query produced no output; workload too small")
				}
				if f, u := fusedRes.OperatorCount(), unfusedRes.OperatorCount(); f >= u {
					t.Errorf("fused OperatorCount = %d, want strictly fewer than unfused %d", f, u)
				}
			})
		}
	}
}

// TestFusionModeDefaultsArePaperFaithful pins the default translation
// mode per runner: Apex fuses (Figure 11's ~1x grep), the others do not
// (Figure 13's per-primitive expansion).
func TestFusionModeDefaultsArePaperFaithful(t *testing.T) {
	for _, tc := range []struct {
		runner    string
		wantFused bool
	}{
		{"apex", true},
		{"direct", false},
		{"flink", false},
		{"spark", false},
	} {
		defaultOut, defaultRes := runQuery(t, tc.runner, queries.Grep, beam.FusionDefault, 7)
		mode := beam.FusionOff
		if tc.wantFused {
			mode = beam.FusionOn
		}
		forcedOut, forcedRes := runQuery(t, tc.runner, queries.Grep, mode, 7)
		if !reflect.DeepEqual(defaultOut, forcedOut) {
			t.Errorf("%s: default-mode output differs from fusion=%v output", tc.runner, tc.wantFused)
		}
		if defaultRes.OperatorCount() != forcedRes.OperatorCount() {
			t.Errorf("%s: default OperatorCount = %d, fusion=%v gives %d — default is not paper-faithful",
				tc.runner, defaultRes.OperatorCount(), tc.wantFused, forcedRes.OperatorCount())
		}
	}
}

// TestDirectRunnerFusionPropertyAcrossSeeds drives the reference runner
// over several generated workloads per query, asserting fused and
// unfused execution agree element-for-element.
func TestDirectRunnerFusionPropertyAcrossSeeds(t *testing.T) {
	for _, seed := range []uint64{1, 9, 1234} {
		for _, q := range queries.All() {
			fusedOut, _ := runQuery(t, "direct", q, beam.FusionOn, seed)
			unfusedOut, _ := runQuery(t, "direct", q, beam.FusionOff, seed)
			if !reflect.DeepEqual(fusedOut, unfusedOut) {
				t.Errorf("seed %d, query %s: fused and unfused outputs differ", seed, q)
			}
		}
	}
}

// TestEngineRunnersMatchDirectReference cross-checks every engine
// runner's fused and unfused outputs against the direct runner.
func TestEngineRunnersMatchDirectReference(t *testing.T) {
	for _, q := range queries.All() {
		reference, _ := runQuery(t, "direct", q, beam.FusionOff, 42)
		for _, runnerName := range []string{"flink", "spark", "apex"} {
			for _, mode := range []beam.FusionMode{beam.FusionOn, beam.FusionOff} {
				got, _ := runQuery(t, runnerName, q, mode, 42)
				if !reflect.DeepEqual(got, reference) {
					t.Errorf("%s (fusion %s), query %s: output differs from direct reference (%d vs %d records)",
						runnerName, mode, q, len(got), len(reference))
				}
			}
		}
	}
}

// multiRecordWindowWorkload preloads a broker with records whose
// 1-second event-time windows each hold several records of few users,
// so WindowedCount panes carry counts above one — the case where a
// watermark firing early (before a lagging upstream partition delivered
// its share) would split panes.
func multiRecordWindowWorkload(t testing.TB) queries.Workload {
	t.Helper()
	b := broker.New()
	for _, topic := range []string{"input", "output"} {
		if err := b.CreateTopic(topic, broker.TopicConfig{Partitions: 1}); err != nil {
			t.Fatal(err)
		}
	}
	gen, err := aol.NewGenerator(aol.Config{Records: 600, Seed: 11, GrepHits: -1, QueryTimeStep: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.NewProducer(broker.ProducerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		rec, ok := gen.Next()
		if !ok {
			break
		}
		rec.UserID = fmt.Sprintf("user%d", i%3) // few users -> multi-record panes
		if err := p.Send("input", nil, rec.AppendTSV(nil)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	return queries.Workload{Broker: b, InputTopic: "input", OutputTopic: "output", Seed: 7}
}

// TestWindowedCountParallelMultiRecordPanes drives the stateful query
// with multi-record panes at parallelism 2 on every engine runner and
// compares sorted outputs against the direct reference. This is the
// scenario where the keyed stateful instance receives interleaved
// streams from racing upstream partitions: per-input watermark tracking
// (minimum-across-inputs propagation) must keep every pane whole. Three
// repetitions guard against scheduling-dependent interleavings.
func TestWindowedCountParallelMultiRecordPanes(t *testing.T) {
	ref := multiRecordWindowWorkload(t)
	p, err := queries.BeamPipeline(ref, queries.WindowedCount)
	if err != nil {
		t.Fatal(err)
	}
	r, err := beam.GetRunner("direct")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), p, beam.Options{}); err != nil {
		t.Fatal(err)
	}
	want := outputStrings(t, ref)
	sort.Strings(want)
	multi := 0
	for _, pane := range want {
		if !strings.HasSuffix(pane, "\t1") {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("reference has no multi-record panes; workload does not exercise the hazard")
	}

	for _, runnerName := range []string{"flink", "spark", "apex"} {
		for round := range 3 {
			t.Run(fmt.Sprintf("%s/round%d", runnerName, round), func(t *testing.T) {
				w := multiRecordWindowWorkload(t)
				p, err := queries.BeamPipeline(w, queries.WindowedCount)
				if err != nil {
					t.Fatal(err)
				}
				r, err := beam.GetRunner(runnerName)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := r.Run(context.Background(), p, beam.Options{Parallelism: 2}); err != nil {
					t.Fatal(err)
				}
				got := outputStrings(t, w)
				sort.Strings(got)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("sorted output (%d panes) differs from direct reference (%d panes)", len(got), len(want))
				}
			})
		}
	}
}

// TestWindowedCountMultiPartitionTopic drives the stateful query from a
// two-partition input topic at parallelism 2: two source subtasks are
// genuinely concurrently active, so the keyed stateful instances merge
// racing ordered streams. The propagated watermark (each source chain
// stamps its own, combined min-over-senders at the keyed merge) must
// keep every pane whole; the sorted output must equal the
// dataset-derived reference on every engine runner.
func TestWindowedCountMultiPartitionTopic(t *testing.T) {
	records := make([][]byte, 0, 400)
	gen, err := aol.NewGenerator(aol.Config{Records: 400, Seed: 21, GrepHits: -1, QueryTimeStep: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		rec, ok := gen.Next()
		if !ok {
			break
		}
		rec.UserID = fmt.Sprintf("user%d", i%3)
		records = append(records, rec.AppendTSV(nil))
	}
	wantPayloads, err := queries.ExpectedWindowedCounts(records)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(wantPayloads))
	for i, p := range wantPayloads {
		want[i] = string(p)
	}
	sort.Strings(want)

	load := func() queries.Workload {
		b := broker.New()
		if err := b.CreateTopic("input", broker.TopicConfig{Partitions: 2}); err != nil {
			t.Fatal(err)
		}
		if err := b.CreateTopic("output", broker.TopicConfig{Partitions: 1}); err != nil {
			t.Fatal(err)
		}
		p, err := b.NewProducer(broker.ProducerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range records {
			// Alternate partitions: each partition's stream stays
			// event-time ordered, their merge does not.
			if err := p.Send("input", []byte(fmt.Sprintf("p%d", i%2)), rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		return queries.Workload{Broker: b, InputTopic: "input", OutputTopic: "output", Seed: 7}
	}

	for _, runnerName := range []string{"flink", "spark", "apex"} {
		t.Run(runnerName, func(t *testing.T) {
			w := load()
			p, err := queries.BeamPipeline(w, queries.WindowedCount)
			if err != nil {
				t.Fatal(err)
			}
			r, err := beam.GetRunner(runnerName)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Run(context.Background(), p, beam.Options{Parallelism: 2}); err != nil {
				t.Fatal(err)
			}
			got := outputStrings(t, w)
			sort.Strings(got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("sorted output (%d panes) differs from dataset reference (%d panes)", len(got), len(want))
			}
		})
	}
}

// TestMetricsAndElements sanity-checks the beam.Result surface.
func TestMetricsAndElements(t *testing.T) {
	_, res := runQuery(t, "flink", queries.Grep, beam.FusionDefault, 42)
	metrics := res.Metrics()
	if len(metrics) == 0 {
		t.Error("flink result has no operator metrics")
	}
	if res.Elements(beam.PCollection{}) != nil {
		t.Error("engine runner materialized elements")
	}

	w := freshWorkload(t, 42)
	p, err := queries.BeamPipeline(w, queries.Grep)
	if err != nil {
		t.Fatal(err)
	}
	r, err := beam.GetRunner("direct")
	if err != nil {
		t.Fatal(err)
	}
	res, err = r.Run(context.Background(), p, beam.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics()) == 0 {
		t.Error("direct result has no stage counts")
	}
}

// TestAllRunnersReportStageThroughput: with a collector in the
// beam.Options.Telemetry handle, every registered runner — direct included —
// must report per-stage throughput, and some stage must carry exactly
// the query's output record count.
func TestAllRunnersReportStageThroughput(t *testing.T) {
	for _, runnerName := range []string{"direct", "apex", "flink", "spark"} {
		t.Run(runnerName, func(t *testing.T) {
			w := freshWorkload(t, 42)
			p, err := queries.BeamPipeline(w, queries.Grep)
			if err != nil {
				t.Fatal(err)
			}
			r, err := beam.GetRunner(runnerName)
			if err != nil {
				t.Fatal(err)
			}
			col := metrics.NewCollector()
			if _, err := r.Run(context.Background(), p, beam.Options{Telemetry: obs.NewRun(nil, col, false, nil, nil)}); err != nil {
				t.Fatal(err)
			}
			outputs := int64(len(outputStrings(t, w)))
			if outputs == 0 {
				t.Fatal("grep produced no output; workload too small")
			}
			sums := col.StageSummaries()
			if len(sums) == 0 {
				t.Fatal("no stage throughput collected")
			}
			var sawInput, sawOutput bool
			for _, s := range sums {
				if s.Records == testRecords {
					sawInput = true
				}
				if s.Records == outputs {
					sawOutput = true
				}
				if s.Records > 0 && s.PeakRate <= 0 {
					t.Errorf("stage %q has %d records but zero peak rate", s.Name, s.Records)
				}
			}
			if !sawInput || !sawOutput {
				t.Errorf("stage counts miss input (%d) or output (%d): %+v", testRecords, outputs, sums)
			}
		})
	}
}
