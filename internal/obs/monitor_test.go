package obs

import (
	"testing"
	"time"

	"beambench/internal/broker"
	"beambench/internal/metrics"
)

func TestMonitorSamplesAndSummaries(t *testing.T) {
	tr := NewTracer(1 << 10)
	scope := tr.Scoped("cell/run0")
	col := metrics.NewCollector()
	col.Stage("source").Mark(3)
	var lag int64 = 10
	run := NewRun(scope, col, false, func() []LagSample {
		v := lag
		lag = max(lag-1, 0)
		return []LagSample{{Topic: "input", Partition: 0, Lag: v}}
	}, nil)
	m := NewMonitor(run, time.Millisecond)
	m.Start()
	time.Sleep(10 * time.Millisecond)
	sums := m.Stop()

	byName := map[string]GaugeSummary{}
	for _, s := range sums {
		byName[s.Name] = s
	}
	// Summaries carry the bare gauge name — the scope identifies the
	// run, and bare names let one cell's runs merge by gauge.
	got, ok := byName["consumer-lag/input/p0"]
	if !ok {
		t.Fatalf("no consumer-lag summary; got %+v", sums)
	}
	if got.Samples < 2 {
		t.Errorf("only %d samples in 10ms at 1ms cadence", got.Samples)
	}
	if got.Max != 10 {
		t.Errorf("max = %v, want 10 (first sample)", got.Max)
	}
	if got.Mean <= 0 || got.Mean > 10 {
		t.Errorf("mean = %v out of range", got.Mean)
	}
	if _, ok := byName["rate/source"]; !ok {
		t.Errorf("no stage-rate summary; got %+v", sums)
	}
	if len(sums) != 2 {
		t.Errorf("got %d series, want consumer lag and one stage rate: %+v", len(sums), sums)
	}
	// Counter events landed in the shared ring under the scope prefix.
	found := false
	for _, ev := range tr.Events() {
		if ev.Phase == PhaseCounter && ev.Track == "cell/run0/consumer-lag/input/p0" {
			found = true
		}
	}
	if !found {
		t.Error("no counter events recorded on the scoped track")
	}
	// Stop is idempotent and stable.
	again := m.Stop()
	if len(again) != len(sums) {
		t.Errorf("second Stop() returned %d series, want %d", len(again), len(sums))
	}
}

func TestMonitorFinalTickCoversShortRuns(t *testing.T) {
	run := NewRun(NewTracer(64), nil, false, func() []LagSample {
		return []LagSample{{Topic: "x", Partition: 0, Lag: 7}}
	}, nil)
	m := NewMonitor(run, time.Hour) // cadence far beyond the run
	m.Start()
	sums := m.Stop()
	if len(sums) != 1 || sums[0].Samples != 1 || sums[0].Last != 7 {
		t.Errorf("final tick on Stop missing: %+v", sums)
	}
}

func TestMonitorWatermarkLagIsFrontierRelative(t *testing.T) {
	run := NewRun(NewTracer(256), nil, false, nil, nil)
	m := NewMonitor(run, time.Hour)
	ahead := run.Gauge("watermark-lag/source")
	behind := run.Gauge("watermark-lag/gbk")
	unset := run.Gauge("watermark-lag/idle")
	done := run.Gauge("watermark-lag/sink")
	_ = unset

	base := time.Unix(1000, 0)
	ahead.SetTime(base.Add(5 * time.Second))
	behind.SetTime(base)
	done.SetTime(time.Unix(0, 1<<63-1)) // watermark.EndOfTime

	m.Start()
	sums := m.Stop()
	byName := map[string]GaugeSummary{}
	for _, s := range sums {
		byName[s.Name] = s
	}
	if s := byName["watermark-lag/source"]; s.Last != 0 {
		t.Errorf("frontier operator lag = %v, want 0", s.Last)
	}
	if s := byName["watermark-lag/gbk"]; s.Last != 5 {
		t.Errorf("behind operator lag = %v s, want 5", s.Last)
	}
	if s := byName["watermark-lag/sink"]; s.Last != 0 {
		t.Errorf("drained operator lag = %v, want 0", s.Last)
	}
	if _, ok := byName["watermark-lag/idle"]; ok {
		t.Error("never-set gauge produced samples")
	}
}

// TestConsumerLagPerPartitionP2 is the satellite test: with a
// two-partition topic and interleaved appends, the broker-derived lag
// must be correct per partition, not as an aggregate.
func TestConsumerLagPerPartitionP2(t *testing.T) {
	b := broker.New()
	defer b.Close()
	if err := b.CreateTopic("in", broker.TopicConfig{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	prod, err := b.NewProducer(broker.ProducerConfig{
		// Route by key byte so the interleaving is explicit.
		Partitioner: func(key []byte, partitions int) int { return int(key[0]) % partitions },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Interleave appends: 6 records to p0, 4 to p1.
	for i := 0; i < 10; i++ {
		part := i % 2
		if i >= 8 {
			part = 0 // the tail goes to p0 only
		}
		if err := prod.Send("in", []byte{byte(part)}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := prod.Flush(); err != nil {
		t.Fatal(err)
	}

	// Two consumers, one per partition, drain different amounts:
	// p0 fetches 2 of its 6, p1 fetches all 4.
	c0, err := b.NewConsumer(broker.ConsumerConfig{MaxPollRecords: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c0.Assign("in", 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c0.Poll(); err != nil {
		t.Fatal(err)
	}
	c1, err := b.NewConsumer(broker.ConsumerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Assign("in", 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Poll(); err != nil {
		t.Fatal(err)
	}

	ends, err := b.EndOffsets("in")
	if err != nil {
		t.Fatal(err)
	}
	consumed, err := b.ConsumedOffsets("in")
	if err != nil {
		t.Fatal(err)
	}
	if ends[0] != 6 || ends[1] != 4 {
		t.Fatalf("end offsets = %v, want [6 4]", ends)
	}
	if consumed[0] != 2 || consumed[1] != 4 {
		t.Fatalf("consumed offsets = %v, want [2 4]", consumed)
	}

	// Wire the same derivation the harness's consumer-lag probe uses and
	// check the per-partition counter tracks disagree — lag is not an
	// aggregate.
	run := NewRun(NewTracer(256), nil, false, func() []LagSample {
		ends, err1 := b.EndOffsets("in")
		cons, err2 := b.ConsumedOffsets("in")
		if err1 != nil || err2 != nil {
			return nil
		}
		out := make([]LagSample, len(ends))
		for p := range ends {
			out[p] = LagSample{Topic: "in", Partition: p, Lag: ends[p] - cons[p]}
		}
		return out
	}, nil)
	m := NewMonitor(run, time.Hour)
	m.Start()
	sums := m.Stop()
	byName := map[string]GaugeSummary{}
	for _, s := range sums {
		byName[s.Name] = s
	}
	if s := byName["consumer-lag/in/p0"]; s.Last != 4 {
		t.Errorf("p0 lag = %v, want 4 (6 appended, 2 consumed)", s.Last)
	}
	if s := byName["consumer-lag/in/p1"]; s.Last != 0 {
		t.Errorf("p1 lag = %v, want 0 (fully drained)", s.Last)
	}
}

func TestMergeGaugeSummaries(t *testing.T) {
	a := []GaugeSummary{{Name: "x", Samples: 2, Max: 4, Mean: 3, Last: 4}}
	b := []GaugeSummary{
		{Name: "x", Samples: 2, Max: 10, Mean: 9, Last: 8},
		{Name: "y", Samples: 1, Max: 1, Mean: 1, Last: 1},
	}
	out := MergeGaugeSummaries(a, b)
	if len(out) != 2 {
		t.Fatalf("merged %d series, want 2", len(out))
	}
	x := out[0]
	if x.Name != "x" || x.Samples != 4 || x.Max != 10 || x.Last != 8 {
		t.Errorf("merged x = %+v", x)
	}
	if want := (3.0*2 + 9.0*2) / 4; x.Mean != want {
		t.Errorf("merged mean = %v, want %v", x.Mean, want)
	}
}
