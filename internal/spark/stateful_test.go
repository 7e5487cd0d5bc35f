package spark

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"beambench/internal/watermark"
)

var winEpoch = time.Date(2006, time.March, 1, 0, 0, 0, 0, time.UTC)

func windowedRecord(sec int, key string) []byte {
	return []byte(fmt.Sprintf("%d|%s", sec, key))
}

func testEventTime(rec []byte) (time.Time, error) {
	var sec int
	if _, err := fmt.Sscanf(string(rec), "%d|", &sec); err != nil {
		return time.Time{}, err
	}
	return winEpoch.Add(time.Duration(sec) * time.Second), nil
}

func testKey(rec []byte) ([]byte, error) {
	i := strings.IndexByte(string(rec), '|')
	return rec[i+1:], nil
}

// keyedCount is a test-local keyed count over 1s tumbling windows on the
// generic micro-batch state hook: panes fire at batch boundaries off the
// propagated watermark and flush at end of input, rendered
// "sec:key=count".
type keyedCount struct {
	state *watermark.WindowState[int64]
}

func newKeyedCount(int) (StatefulProcessor, error) {
	a, err := watermark.NewTumblingAssigner(time.Second)
	if err != nil {
		return nil, err
	}
	state, err := watermark.NewWindowState[int64](a, nil)
	if err != nil {
		return nil, err
	}
	return &keyedCount{state: state}, nil
}

func (c *keyedCount) Process(_ TaskContext, rec []byte, _ func([]byte)) error {
	et, err := testEventTime(rec)
	if err != nil {
		return err
	}
	key, _ := testKey(rec)
	c.state.Upsert(et, string(key), func(n *int64) { *n++ })
	return nil
}

func (c *keyedCount) EndBatch(task TaskContext, emit func([]byte)) error {
	return c.state.FireReady(task.Watermark, countPane(emit))
}

func (c *keyedCount) EndStream(_ TaskContext, emit func([]byte)) error {
	return c.state.FireAll(countPane(emit))
}

func countPane(emit func([]byte)) func(watermark.Pane[int64]) error {
	return func(p watermark.Pane[int64]) error {
		emit([]byte(fmt.Sprintf("%d:%s=%d", p.Start.Sub(winEpoch)/time.Second, p.Key, p.Acc)))
		return nil
	}
}

// runWindowed drives a keyed windowed count over the input with the
// given per-batch size and returns the collected output in order.
func runWindowed(t *testing.T, input [][]byte, perBatch int) []string {
	t.Helper()
	cluster := newTestCluster(t, ClusterConfig{})
	ssc, err := NewStreamingContext(cluster, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	ssc.SliceStream(input, perBatch).
		AssignTimestampsBounded(testEventTime, 0).
		Stateful("WindowedCount", newKeyedCount).
		ForeachRecord("collect", func(rec []byte) error {
			got = append(got, string(rec))
			return nil
		})
	if _, err := ssc.RunBounded(); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestKeyedWindowCountsAcrossBatches(t *testing.T) {
	input := [][]byte{
		windowedRecord(0, "a"),
		windowedRecord(0, "b"),
		windowedRecord(0, "a"),
		windowedRecord(1, "a"),
		windowedRecord(2, "b"),
	}
	want := []string{"0:a=2", "0:b=1", "1:a=1", "2:b=1"}
	// The pane sequence must not depend on how micro-batches slice the
	// input: state persists across batches and windows fire in event-time
	// order at batch boundaries.
	for _, perBatch := range []int{1, 2, 5} {
		got := runWindowed(t, input, perBatch)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("perBatch=%d: panes = %v, want %v", perBatch, got, want)
		}
	}
}

// TestStatefulStateSurvivesBatches pins the state path itself: a window
// split across two micro-batches must produce one pane with the full
// count, not two partial panes.
func TestStatefulStateSurvivesBatches(t *testing.T) {
	input := [][]byte{
		windowedRecord(0, "a"),
		windowedRecord(0, "a"), // same window, lands in batch 2 at perBatch=1
		windowedRecord(3, "a"),
	}
	got := runWindowed(t, input, 1)
	want := []string{"0:a=2", "3:a=1"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("panes = %v, want %v", got, want)
	}
}

func TestRepartitionByKeyKeepsKeysTogether(t *testing.T) {
	cluster := newTestCluster(t, ClusterConfig{})
	ssc, err := NewStreamingContext(cluster, Config{DefaultParallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	var input [][]byte
	for i := range 90 {
		input = append(input, windowedRecord(i/30, fmt.Sprintf("k%d", i%6)))
	}
	var mu sync.Mutex
	counts := make(map[string]int)
	ssc.SliceStream(input, 10).
		AssignTimestampsBounded(testEventTime, 0).
		RepartitionByKey(3, testKey).
		Stateful("WindowedCount", newKeyedCount).
		ForeachRecord("collect", func(rec []byte) error {
			mu.Lock()
			counts[string(rec)]++
			mu.Unlock()
			return nil
		})
	if _, err := ssc.RunBounded(); err != nil {
		t.Fatal(err)
	}
	// 3 windows x 6 keys, 5 records each: every pane exactly once with
	// the full count — the keyed shuffle reunited each key's records.
	if len(counts) != 18 {
		t.Fatalf("distinct panes = %d, want 18: %v", len(counts), counts)
	}
	for pane, n := range counts {
		if n != 1 {
			t.Errorf("pane %q emitted %d times", pane, n)
		}
		if !strings.HasSuffix(pane, "=5") {
			t.Errorf("pane %q count wrong, want =5", pane)
		}
	}
}

func TestStatefulStageRejectsTwoOutputs(t *testing.T) {
	cluster := newTestCluster(t, ClusterConfig{})
	ssc, err := NewStreamingContext(cluster, Config{})
	if err != nil {
		t.Fatal(err)
	}
	windowed := ssc.SliceStream([][]byte{windowedRecord(0, "a")}, 0).
		AssignTimestampsBounded(testEventTime, 0).
		Stateful("WindowedCount", newKeyedCount)
	windowed.ForeachRecord("one", func([]byte) error { return nil })
	windowed.ForeachRecord("two", func([]byte) error { return nil })
	if _, err := ssc.RunBounded(); err == nil {
		t.Error("stateful stage with two outputs accepted")
	}
}

// TestStatefulFactoryErrorFailsRun pins that a stateful stage whose
// processor cannot be constructed fails the run.
func TestStatefulFactoryErrorFailsRun(t *testing.T) {
	cluster := newTestCluster(t, ClusterConfig{})
	ssc, err := NewStreamingContext(cluster, Config{})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	ssc.SliceStream([][]byte{windowedRecord(0, "a")}, 0).
		Stateful("bad", func(int) (StatefulProcessor, error) { return nil, boom }).
		ForeachRecord("collect", func([]byte) error { return nil })
	if _, err := ssc.RunBounded(); !errors.Is(err, boom) {
		t.Errorf("RunBounded = %v, want boom", err)
	}
}
