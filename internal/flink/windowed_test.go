package flink

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"beambench/internal/watermark"
)

var winEpoch = time.Date(2006, time.March, 1, 0, 0, 0, 0, time.UTC)

// windowedRecord renders "sec|key" test records.
func windowedRecord(sec int, key string) []byte {
	return []byte(fmt.Sprintf("%d|%s", sec, key))
}

func winEventTime(rec []byte) (time.Time, error) {
	var sec int
	if _, err := fmt.Sscanf(string(rec), "%d|", &sec); err != nil {
		return time.Time{}, err
	}
	return winEpoch.Add(time.Duration(sec) * time.Second), nil
}

func winKey(rec []byte) ([]byte, error) {
	i := strings.IndexByte(string(rec), '|')
	return rec[i+1:], nil
}

// keyedCount is a test-local keyed count over 1s tumbling windows on the
// generic watermark-aware hook: panes fire off the propagated watermark
// and flush at end of input, rendered "sec:key=count".
func keyedCount(OperatorContext) (ProcessFunc, WatermarkFunc, FlushFunc, error) {
	a, err := watermark.NewTumblingAssigner(time.Second)
	if err != nil {
		return nil, nil, nil, err
	}
	state, err := watermark.NewWindowState[int64](a, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	pane := func(out Collector) func(watermark.Pane[int64]) error {
		return func(p watermark.Pane[int64]) error {
			return out.Collect([]byte(fmt.Sprintf("%d:%s=%d", p.Start.Sub(winEpoch)/time.Second, p.Key, p.Acc)))
		}
	}
	process := func(rec []byte, _ Collector) error {
		et, err := winEventTime(rec)
		if err != nil {
			return err
		}
		key, _ := winKey(rec)
		state.Upsert(et, string(key), func(n *int64) { *n++ })
		return nil
	}
	onWatermark := func(w time.Time, out Collector) error { return state.FireReady(w, pane(out)) }
	flush := func(out Collector) error { return state.FireAll(pane(out)) }
	return process, onWatermark, flush, nil
}

func TestKeyedWindowCountsPerWindowAndKey(t *testing.T) {
	cluster := newTestCluster(t, ClusterConfig{})
	env := NewEnvironment(cluster)
	sink := NewRecordCollector()

	input := [][]byte{
		windowedRecord(0, "a"),
		windowedRecord(0, "b"),
		windowedRecord(0, "a"),
		windowedRecord(1, "a"), // closes window 0
		windowedRecord(2, "b"), // closes window 1
	}
	env.AddSource("src", SliceSource(input)).
		AssignTimestampsBounded("assign", winEventTime, 0).
		KeyBy(winKey).
		ProcessWithWatermark("WindowedCount", keyedCount).
		AddSink("sink", CollectSink(sink))
	if _, err := env.Execute("windowed"); err != nil {
		t.Fatal(err)
	}
	got := sink.Strings()
	want := []string{"0:a=2", "0:b=1", "1:a=1", "2:b=1"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("panes = %v, want %v", got, want)
	}
}

// TestKeyedWindowFiresBeforeEndOfInput pins watermark-driven firing: a
// pane whose window the watermark passed must be emitted by the operator
// while the source is still running, not buffered to the final flush.
func TestKeyedWindowFiresBeforeEndOfInput(t *testing.T) {
	cluster := newTestCluster(t, ClusterConfig{})
	env := NewEnvironment(cluster)
	sink := NewRecordCollector()

	input := [][]byte{windowedRecord(0, "a"), windowedRecord(5, "a")}
	env.AddSource("src", SliceSource(input)).
		AssignTimestampsBounded("assign", winEventTime, 0).
		KeyBy(winKey).
		ProcessWithWatermark("WindowedCount", keyedCount).
		AddSink("sink", CollectSink(sink))
	if _, err := env.Execute("early"); err != nil {
		t.Fatal(err)
	}
	got := sink.Strings()
	want := []string{"0:a=1", "5:a=1"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("panes = %v, want %v (window 0 fired by the record at t=5)", got, want)
	}
}

func TestKeyedWindowParallelism(t *testing.T) {
	cluster := newTestCluster(t, ClusterConfig{})
	env := NewEnvironment(cluster)
	sink := NewRecordCollector()

	var input [][]byte
	for i := range 60 {
		input = append(input, windowedRecord(i/10, fmt.Sprintf("k%d", i%5)))
	}
	env.AddSource("src", SliceSource(input)).
		AssignTimestampsBounded("assign", winEventTime, 0).
		KeyBy(winKey).
		ProcessWithWatermark("WindowedCount", keyedCount).SetParallelism(3).
		AddSink("sink", CollectSink(sink))
	if _, err := env.Execute("windowed-p3"); err != nil {
		t.Fatal(err)
	}
	// 6 windows x 5 keys, 2 records each: each (window, key) pane must
	// appear exactly once with count 2 — keyed routing kept state whole.
	counts := make(map[string]int)
	for _, s := range sink.Strings() {
		counts[s]++
	}
	if len(counts) != 30 {
		t.Fatalf("distinct panes = %d, want 30", len(counts))
	}
	for pane, n := range counts {
		if n != 1 {
			t.Errorf("pane %q emitted %d times", pane, n)
		}
		if !strings.HasSuffix(pane, "=2") {
			t.Errorf("pane %q count wrong, want =2", pane)
		}
	}
}

// TestProcessWithWatermarkFactoryErrorFailsJob pins that a stateful
// operator which cannot be constructed fails the job.
func TestProcessWithWatermarkFactoryErrorFailsJob(t *testing.T) {
	cluster := newTestCluster(t, ClusterConfig{})
	env := NewEnvironment(cluster)
	boom := errors.New("boom")
	env.AddSource("src", SliceSource(records(1))).
		ProcessWithWatermark("w", func(OperatorContext) (ProcessFunc, WatermarkFunc, FlushFunc, error) {
			return nil, nil, nil, boom
		}).
		AddSink("sink", CollectSink(NewRecordCollector()))
	if _, err := env.Execute("bad"); !errors.Is(err, boom) {
		t.Errorf("Execute = %v, want boom", err)
	}
}
