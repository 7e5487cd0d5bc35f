package apex

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"beambench/internal/watermark"
	"beambench/internal/yarn"
)

var winEpoch = time.Date(2006, time.March, 1, 0, 0, 0, 0, time.UTC)

func windowedTuple(sec int, key string) []byte {
	return []byte(fmt.Sprintf("%d|%s", sec, key))
}

func winEventTime(t []byte) (time.Time, error) {
	var sec int
	if _, err := fmt.Sscanf(string(t), "%d|", &sec); err != nil {
		return time.Time{}, err
	}
	return winEpoch.Add(time.Duration(sec) * time.Second), nil
}

func winKey(t []byte) ([]byte, error) {
	i := strings.IndexByte(string(t), '|')
	return t[i+1:], nil
}

// keyedCount is a test-local keyed count over 1s tumbling windows on the
// generic watermark-aware hooks: panes fire off the combined input
// watermark and drain at end of stream, rendered "sec:key=count".
type keyedCount struct {
	state *watermark.WindowState[int64]
}

func newKeyedCount(OperatorContext) (GenericOperator, error) {
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

func (c *keyedCount) Process(t []byte, _ func([]byte) error) error {
	et, err := winEventTime(t)
	if err != nil {
		return err
	}
	key, _ := winKey(t)
	c.state.Upsert(et, string(key), func(n *int64) { *n++ })
	return nil
}

// OnWatermark implements WatermarkAware.
func (c *keyedCount) OnWatermark(w time.Time, emit func([]byte) error) error {
	return c.state.FireReady(w, countPane(emit))
}

// EndStream implements StreamFlusher.
func (c *keyedCount) EndStream(emit func([]byte) error) error {
	return c.state.FireAll(countPane(emit))
}

func (c *keyedCount) Teardown() error { return nil }

func countPane(emit func([]byte) error) func(watermark.Pane[int64]) error {
	return func(p watermark.Pane[int64]) error {
		return emit([]byte(fmt.Sprintf("%d:%s=%d", p.Start.Sub(winEpoch)/time.Second, p.Key, p.Acc)))
	}
}

func runWindowedApp(t *testing.T, input [][]byte, parallelism, windowTuples int) []string {
	t.Helper()
	cluster, err := yarn.NewCluster(yarn.ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Start()
	t.Cleanup(cluster.Stop)

	collector := NewTupleCollector()
	app := NewApplication("windowed")
	app.AddInput("in", SliceInput(input))
	app.AddOperator("assign", AssignTimestamps(winEventTime, 0))
	app.AddOperator("count", newKeyedCount)
	app.AddOutput("out", CollectOutput(collector))
	app.AddStream("s0", "in", "assign")
	app.AddStream("s1", "assign", "count")
	app.AddStream("s2", "count", "out")
	app.SetStreamKeyed("s1", winKey)

	stram, err := Launch(cluster, app, LaunchConfig{Parallelism: parallelism, WindowTuples: windowTuples})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stram.Await(); err != nil {
		t.Fatal(err)
	}
	return collector.Strings()
}

func TestKeyedWindowCountsPerWindowAndKey(t *testing.T) {
	input := [][]byte{
		windowedTuple(0, "a"),
		windowedTuple(0, "b"),
		windowedTuple(0, "a"),
		windowedTuple(1, "a"),
		windowedTuple(2, "b"),
	}
	got := runWindowedApp(t, input, 1, 0)
	want := []string{"0:a=2", "0:b=1", "1:a=1", "2:b=1"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("panes = %v, want %v", got, want)
	}
}

// TestKeyedWindowFiresOnStreamingWindowBoundary pins the EndWindow
// flush: with a 2-tuple streaming window, the pane of an
// already-passed event-time window must be published at the next window
// boundary, before the input ends.
func TestKeyedWindowFiresOnStreamingWindowBoundary(t *testing.T) {
	input := [][]byte{
		windowedTuple(0, "a"),
		windowedTuple(1, "a"), // watermark passes window 0 here
		windowedTuple(1, "b"),
		windowedTuple(9, "z"), // forces another boundary
	}
	got := runWindowedApp(t, input, 1, 2)
	want := []string{"0:a=1", "1:a=1", "1:b=1", "9:z=1"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("panes = %v, want %v", got, want)
	}
}

// TestKeyedWindowPartitioning checks that keyed stream
// routing keeps every (window, key) pane whole at parallelism 2.
func TestKeyedWindowPartitioning(t *testing.T) {
	var input [][]byte
	for i := range 80 {
		input = append(input, windowedTuple(i/20, fmt.Sprintf("k%d", i%4)))
	}
	got := runWindowedApp(t, input, 2, 0)
	// 4 windows x 4 keys, 5 records each.
	sort.Strings(got)
	counts := make(map[string]int)
	for _, pane := range got {
		counts[pane]++
	}
	if len(counts) != 16 {
		t.Fatalf("distinct panes = %d, want 16: %v", len(counts), got)
	}
	for pane, n := range counts {
		if n != 1 {
			t.Errorf("pane %q emitted %d times (key split across partitions)", pane, n)
		}
		if !strings.HasSuffix(pane, "=5") {
			t.Errorf("pane %q count wrong, want =5", pane)
		}
	}
}

// gatedInput emits head tuples from partition 0, then waits for the
// test to open the gate before emitting tail and finishing. Non-zero
// partitions finish immediately, like an idle Kafka reader.
type gatedInput struct {
	head, tail [][]byte
	gate       <-chan struct{}
	pos        int
}

func (g *gatedInput) NextTuples(max int, emit func([]byte) error) (bool, error) {
	if g.pos < len(g.head) {
		if err := emit(g.head[g.pos]); err != nil {
			return false, err
		}
		g.pos++
		return false, nil
	}
	if g.gate != nil {
		select {
		case <-g.gate:
			g.gate = nil
		case <-time.After(10 * time.Second):
			return false, fmt.Errorf("no pane fired mid-stream: watermark did not release a passed window before end of input")
		}
	}
	if g.pos < len(g.head)+len(g.tail) {
		if err := emit(g.tail[g.pos-len(g.head)]); err != nil {
			return false, err
		}
		g.pos++
	}
	return g.pos >= len(g.head)+len(g.tail), nil
}

func (g *gatedInput) Teardown() error { return nil }

// chanOutput forwards every received tuple to a channel.
type chanOutput struct{ ch chan<- string }

func (o chanOutput) Process(t []byte) error { o.ch <- string(t); return nil }
func (o chanOutput) EndWindow() error       { return nil }
func (o chanOutput) Teardown() error        { return nil }

// TestKeyedWindowFiresPerPaneAtP2 pins per-pane firing under
// parallelism 2: once the propagated (min-over-senders) watermark has
// passed a window's end, its pane must publish while the input is still
// running. The input withholds its final record until the first pane
// reaches the sink — under the old conservative fallback (panes fire
// only at end of input at P>1) this test times out instead.
func TestKeyedWindowFiresPerPaneAtP2(t *testing.T) {
	cluster, err := yarn.NewCluster(yarn.ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Start()
	t.Cleanup(cluster.Stop)

	fired := make(chan string, 16)
	gate := make(chan struct{})
	app := NewApplication("perpane")
	app.AddInput("in", func(ctx OperatorContext) (InputOperator, error) {
		if ctx.PartitionIndex() != 0 {
			return &gatedInput{}, nil
		}
		return &gatedInput{
			head: [][]byte{
				windowedTuple(0, "a"),
				windowedTuple(2, "a"), // bound-0 watermark passes window 0 here
			},
			tail: [][]byte{windowedTuple(9, "z")},
			gate: gate,
		}, nil
	})
	app.AddOperator("assign", AssignTimestamps(winEventTime, 0))
	app.AddOperator("count", newKeyedCount)
	app.AddOutput("out", func(OperatorContext) (OutputOperator, error) {
		return chanOutput{ch: fired}, nil
	})
	app.AddStream("s0", "in", "assign")
	app.AddStream("s1", "assign", "count")
	app.AddStream("s2", "count", "out")
	app.SetStreamKeyed("s1", winKey)

	go func() {
		for pane := range fired {
			if pane == "0:a=1" {
				close(gate)
				return
			}
		}
	}()
	stram, err := Launch(cluster, app, LaunchConfig{Parallelism: 2, WindowTuples: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stram.Await(); err != nil {
		t.Fatal(err)
	}
}

// TestOperatorFactoryErrorFailsApplication pins that an operator which
// cannot be constructed fails the application.
func TestOperatorFactoryErrorFailsApplication(t *testing.T) {
	cluster, err := yarn.NewCluster(yarn.ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Start()
	t.Cleanup(cluster.Stop)
	boom := errors.New("boom")
	app := NewApplication("bad")
	app.AddInput("in", SliceInput([][]byte{windowedTuple(0, "a")}))
	app.AddOperator("count", func(OperatorContext) (GenericOperator, error) { return nil, boom })
	app.AddOutput("out", CollectOutput(NewTupleCollector()))
	app.AddStream("s1", "in", "count")
	app.AddStream("s2", "count", "out")
	stram, err := Launch(cluster, app, LaunchConfig{})
	if err == nil {
		_, err = stram.Await()
	}
	if !errors.Is(err, boom) {
		t.Errorf("Launch/Await = %v, want boom", err)
	}
}

func TestSetStreamKeyedUnknownStream(t *testing.T) {
	app := NewApplication("bad")
	app.SetStreamKeyed("nope", winKey)
	if err := app.validate(); err == nil {
		t.Error("unknown stream accepted")
	}
}
