package harness

import (
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"beambench/internal/obs"
	"beambench/internal/queries"
)

// TestTelemetryNamesPinned runs one stream-mode WindowedCount P2 cell
// per system x API with tracing, the live plane and metrics all on, and
// pins the names the telemetry exposes: the harness and engine span
// tracks, the instants (GroupByKey panes on Beam cells, end-of-input
// drains), and the gauge summaries a run reports. perfbench, the trace
// summary and the report JSON key off these names, so a rename must
// show up here. The monitor samples only on its final tick (the
// interval is far beyond the run), which makes the gauge set
// deterministic: by then every operator has drained and every stage
// has registered.
func TestTelemetryNamesPinned(t *testing.T) {
	harnessSpans := []string{"harness execute", "harness result-calc", "harness run", "sender ingest"}
	nativeSpans := append([]string{"harness cluster-launch"}, harnessSpans...)
	consumerLag := []string{"consumer-lag/input/p0", "consumer-lag/output/p0"}
	want := map[string]struct{ spans, instants, gauges []string }{
		"Flink P2": {
			spans: append([]string{
				"flink/Custom Source/subtask-0 subtask", "flink/Custom Source/subtask-1 subtask",
				"flink/WindowedCount/subtask-0 subtask", "flink/WindowedCount/subtask-1 subtask",
			}, nativeSpans...),
			instants: []string{"drain/Timestamps/Watermarks end-of-input", "drain/Unnamed end-of-input"},
			gauges: append(consumerLag,
				"rate/Custom Source", "rate/Timestamps/Watermarks", "rate/Unnamed", "rate/WindowedCount",
				"watermark-lag/Timestamps/Watermarks", "watermark-lag/Unnamed"),
		},
		"Flink Beam P2": {
			spans: append([]string{
				"flink/Flat Map/subtask-0 subtask", "flink/Flat Map/subtask-1 subtask",
				"flink/GroupByKey/subtask-0 subtask", "flink/GroupByKey/subtask-1 subtask",
				"flink/KafkaIO.Write output/subtask-0 subtask", "flink/KafkaIO.Write output/subtask-1 subtask",
				"flink/PTransformTranslation.UnknownRawPTransform/subtask-0 subtask",
				"flink/PTransformTranslation.UnknownRawPTransform/subtask-1 subtask",
				"flink/ParDoTranslation.RawParDo/subtask-0 subtask", "flink/ParDoTranslation.RawParDo/subtask-1 subtask",
			}, harnessSpans...),
			instants: []string{
				"drain/Flat Map end-of-input", "drain/GroupByKey end-of-input",
				"drain/KafkaIO.Write output end-of-input",
				"drain/PTransformTranslation.UnknownRawPTransform end-of-input",
				"drain/ParDoTranslation.RawParDo end-of-input", "panes/GroupByKey pane",
			},
			gauges: append(consumerLag,
				"rate/Flat Map", "rate/GroupByKey", "rate/KafkaIO.Write output",
				"rate/PTransformTranslation.UnknownRawPTransform", "rate/ParDoTranslation.RawParDo",
				"watermark-lag/Flat Map", "watermark-lag/GroupByKey", "watermark-lag/KafkaIO.Write output",
				"watermark-lag/PTransformTranslation.UnknownRawPTransform", "watermark-lag/ParDoTranslation.RawParDo"),
		},
		"Spark P2": {
			spans: append([]string{"spark/driver batch-N", "spark/driver flush-batch"}, nativeSpans...),
			gauges: append(consumerLag,
				"rate/AssignTimestamps", "rate/KafkaDirectStream input", "rate/ReduceByKeyAndWindow", "rate/WindowedCount",
				"watermark-lag/ReduceByKeyAndWindow"),
		},
		"Spark Beam P2": {
			spans:    append([]string{"spark/driver batch-N", "spark/driver flush-batch"}, harnessSpans...),
			instants: []string{"panes/GroupByKey pane"},
			gauges: append(consumerLag,
				"rate/GroupByKey", "rate/KafkaDirectStream input", "rate/KafkaIO.Read input",
				"rate/KafkaIO.Write output", "rate/KafkaIO.Write output serializer", "rate/Values",
				"rate/Window.Into FixedWindows(1s)", "rate/WindowedCount", "rate/WithKeys", "rate/WithoutMetadata",
				"watermark-lag/GroupByKey"),
		},
		"Apex P2": {
			spans: append([]string{
				"apex/assignTimestamps/p0 partition", "apex/assignTimestamps/p1 partition",
				"apex/kafkaInput/p0 partition", "apex/kafkaInput/p1 partition",
				"apex/kafkaOutput/p0 partition", "apex/kafkaOutput/p1 partition",
				"apex/windowedCount/p0 partition", "apex/windowedCount/p1 partition",
			}, nativeSpans...),
			instants: []string{"drain/assignTimestamps end-of-input", "drain/windowedCount end-of-input"},
			gauges: append(consumerLag,
				"rate/assignTimestamps", "rate/kafkaInput", "rate/kafkaOutput", "rate/windowedCount",
				"watermark-lag/assignTimestamps", "watermark-lag/windowedCount"),
		},
		"Apex Beam P2": {
			spans: append([]string{
				"apex/ExecutableStage/p0 partition", "apex/ExecutableStage/p1 partition",
				"apex/GroupByKey/p0 partition", "apex/GroupByKey/p1 partition",
				"apex/KafkaIO.Read/p0 partition", "apex/KafkaIO.Read/p1 partition",
				"apex/KafkaIO.Write/p0 partition",
				"apex/Window.Into FixedWindows(1s)/p0 partition", "apex/Window.Into FixedWindows(1s)/p1 partition",
				"apex/WindowedCount/p0 partition", "apex/WindowedCount/p1 partition",
				"apex/WithKeys/p0 partition", "apex/WithKeys/p1 partition",
			}, harnessSpans...),
			instants: []string{
				"drain/ExecutableStage end-of-input", "drain/GroupByKey end-of-input",
				"drain/Window.Into FixedWindows(1s) end-of-input", "drain/WindowedCount end-of-input",
				"drain/WithKeys end-of-input", "panes/GroupByKey pane",
			},
			gauges: append(consumerLag,
				"rate/ExecutableStage", "rate/GroupByKey", "rate/KafkaIO.Read", "rate/KafkaIO.Write",
				"rate/Window.Into FixedWindows(1s)", "rate/WindowedCount", "rate/WithKeys",
				"watermark-lag/ExecutableStage", "watermark-lag/GroupByKey",
				"watermark-lag/Window.Into FixedWindows(1s)", "watermark-lag/WindowedCount", "watermark-lag/WithKeys"),
		},
	}
	// Spark numbers its micro-batches; how many a stream-mode run takes
	// depends on timing, so every batch span pins as "batch-N".
	batchN := regexp.MustCompile(`batch-[0-9]+$`)

	for _, sys := range Systems() {
		for _, api := range APIs() {
			setup := Setup{System: sys, API: api, Query: queries.WindowedCount, Parallelism: 2}
			exp, ok := want[setup.Label()]
			if !ok {
				t.Fatalf("no pinned names for %s", setup.Label())
			}
			t.Run(strings.ReplaceAll(setup.Label(), " ", "_"), func(t *testing.T) {
				tr := obs.NewTracer(1 << 16)
				cfg := fastConfig()
				cfg.Runs = 1
				cfg.Ingest = IngestStream
				cfg.CollectMetrics = true
				cfg.Trace = tr
				cfg.Plane = obs.NewPlane(cfg.Records, cfg.Runs)
				cfg.GaugeInterval = time.Hour
				r, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := r.RunSingle(setup, 0)
				if err != nil {
					t.Fatal(err)
				}
				if d := tr.Dropped(); d != 0 {
					t.Fatalf("trace ring dropped %d events", d)
				}
				scope := cellKey(setup) + "/run0/"
				spans, instants := map[string]bool{}, map[string]bool{}
				for _, ev := range tr.Events() {
					if !strings.HasPrefix(ev.Track, scope) {
						t.Errorf("event %q %q outside the run scope %q", ev.Track, ev.Name, scope)
						continue
					}
					name := strings.TrimPrefix(ev.Track, scope) + " " + batchN.ReplaceAllString(ev.Name, "batch-N")
					switch ev.Phase {
					case obs.PhaseComplete:
						spans[name] = true
					case obs.PhaseInstant:
						instants[name] = true
					}
				}
				var gauges []string
				for _, g := range res.Gauges {
					gauges = append(gauges, g.Name)
				}
				assertNames(t, "spans", sortedKeys(spans), exp.spans)
				assertNames(t, "instants", sortedKeys(instants), exp.instants)
				assertNames(t, "gauges", gauges, exp.gauges)
			})
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func assertNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	want = slices.Clone(want)
	sort.Strings(want)
	got = slices.Clone(got)
	sort.Strings(got)
	if !slices.Equal(got, want) {
		t.Errorf("%s:\n got %q\nwant %q", what, got, want)
	}
}

// TestPlaneOnlyRunExposesLiveLags scrapes a stream-mode stateful cell
// with the live plane attached and tracing off: mid-run, the snapshot
// must already carry per-operator watermark lag and per-partition
// consumer lag, read from the run's own watermark gauges and broker.
func TestPlaneOnlyRunExposesLiveLags(t *testing.T) {
	const records = 2_000
	plane := obs.NewPlane(records, 1)
	r, err := New(Config{
		Records:           records,
		Runs:              1,
		DisableNoise:      true,
		Ingest:            IngestStream,
		RateRecordsPerSec: 4_000, // ~0.5s sending window: scrapes land mid-run
		Plane:             plane,
	})
	if err != nil {
		t.Fatal(err)
	}
	setup := Setup{System: SystemFlink, API: APINative, Query: queries.WindowedCount, Parallelism: 2}
	done := make(chan error, 1)
	go func() {
		_, err := r.RunCell(setup)
		done <- err
	}()

	var live *obs.CellSnapshot
	for live == nil {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			t.Fatal("cell finished before a scrape saw both lags")
		default:
		}
		for _, c := range plane.Snapshot().Cells {
			if c.State == obs.CellRunning && len(c.WatermarkLag) > 0 && len(c.ConsumerLag) > 0 {
				live = &c
			}
		}
		time.Sleep(time.Millisecond)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for _, l := range live.ConsumerLag {
		if l.Topic != inputTopic && l.Topic != outputTopic {
			t.Errorf("consumer lag on unexpected topic %q", l.Topic)
		}
	}
	for _, w := range live.WatermarkLag {
		if w.Operator == "" || w.LagSec < 0 {
			t.Errorf("bad watermark lag %+v", w)
		}
	}
	// Finished cells keep no run-scoped lags.
	if final := plane.Snapshot().Cells[0]; len(final.ConsumerLag) != 0 || len(final.WatermarkLag) != 0 {
		t.Errorf("finished cell still reports live lags: %+v", final)
	}
}
