package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"beambench/internal/aol"
	"beambench/internal/beam"
	"beambench/internal/beam/graphx"
	"beambench/internal/broker"
	"beambench/internal/harness"
	"beambench/internal/metrics"
	"beambench/internal/queries"
	"beambench/internal/watermark"
)

// The benchmark's own calls into single layers. Each runs on the
// workload's dataset with no cost model and reports time (and, where an
// optimization would most likely show, heap allocations) per record.

// layerReps is how often each layer call repeats; its median is kept.
const layerReps = 5

// seeds returns the dataset and sample seeds harness.New settles on for
// a --seed value: it replaces a 0 dataset seed by its default, and the
// passes keep its default sample seed, which the Sample query's
// reference must share with the engines.
func seeds(seed uint64) (dataset, sample uint64, err error) {
	r, err := harness.New(harness.Config{Records: 1, DatasetSeed: seed})
	if err != nil {
		return 0, 0, err
	}
	cfg := r.Config()
	return cfg.DatasetSeed, cfg.SampleSeed, nil
}

// dataset regenerates the pass's input exactly as harness.New does for
// the dataset seed.
func dataset(w workload, seed uint64) ([][]byte, error) {
	gen, err := aol.NewGenerator(aol.Config{Records: w.records, Seed: seed, GrepHits: -1})
	if err != nil {
		return nil, err
	}
	return gen.All(), nil
}

// expectedOutputs builds each workload query's reference and returns
// its expected output count by query name.
func expectedOutputs(w workload, data [][]byte, sampleSeed uint64) map[string]int64 {
	out := make(map[string]int64, len(w.queries))
	for _, q := range w.queries {
		ix, err := queries.NewSurvivorIndex(q, sampleSeed)
		if err != nil {
			continue // no reference: every cell of q counts as failed
		}
		for _, rec := range data {
			ix.AddInput(rec)
		}
		out[q.String()] = int64(ix.Expected())
	}
	return out
}

// measure runs fn layerReps times and returns the median wall time and
// the median number of heap allocations per call.
func measure(fn func() error) (time.Duration, float64, error) {
	return measurePrepared(func() (func() error, error) { return fn, nil })
}

// measurePrepared is measure for calls that need untimed set-up: each
// repetition calls prepare, then times only the function it returns.
func measurePrepared(prepare func() (func() error, error)) (time.Duration, float64, error) {
	times := make([]float64, 0, layerReps)
	allocs := make([]float64, 0, layerReps)
	var before, after runtime.MemStats
	for range layerReps {
		fn, err := prepare()
		if err != nil {
			return 0, 0, err
		}
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err := fn(); err != nil {
			return 0, 0, err
		}
		times = append(times, float64(time.Since(start)))
		runtime.ReadMemStats(&after)
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
	}
	return time.Duration(median(times)), median(allocs), nil
}

// layerMetrics times every layer call and returns the metrics by name.
func layerMetrics(w workload, seed, sampleSeed uint64) (map[string]float64, error) {
	m := make(map[string]float64)
	n := float64(w.records)
	var data [][]byte

	d, _, err := measure(func() error {
		var err error
		data, err = dataset(w, seed)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("aol: %w", err)
	}
	m["aol.generate_s"] = d.Seconds()

	d, _, err = measure(func() error {
		if got := expectedOutputs(w, data, sampleSeed); len(got) != len(w.queries) {
			return fmt.Errorf("queries: reference for %d of %d queries", len(got), len(w.queries))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["queries.reference_s"] = d.Seconds()

	var b *broker.Broker
	d, allocs, err := measure(func() error {
		var err error
		b, err = produce(data)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("broker produce: %w", err)
	}
	m["broker.produce_ns"] = float64(d) / n
	m["broker.produce_allocs"] = allocs / n

	d, _, err = measure(func() error { return fetch(b, len(data)) })
	if err != nil {
		return nil, fmt.Errorf("broker fetch: %w", err)
	}
	m["broker.fetch_ns"] = float64(d) / n

	d, allocs, err = measure(func() error { return coderRoundTrips(data) })
	if err != nil {
		return nil, fmt.Errorf("beam coders: %w", err)
	}
	m["beam.coder_ns"] = float64(d) / n
	m["beam.coder_allocs"] = allocs / n

	encoded, wms, err := encodeKVs(data)
	if err != nil {
		return nil, fmt.Errorf("graphx: %w", err)
	}
	d, allocs, err = measure(func() error { return groupByKey(encoded, wms) })
	if err != nil {
		return nil, fmt.Errorf("graphx: %w", err)
	}
	m["graphx.gbk_ns"] = float64(d) / n
	m["graphx.gbk_allocs"] = allocs / n

	for _, c := range []struct {
		name    string
		behind  int
		prefill int
		timed   int
	}{
		{"watermark.fire_ns.open3", 2, 0, len(data)},
		{"watermark.fire_ns.open10k", 10_000, 10_000, fireTimed10k},
	} {
		var ev []windowEvent
		ev, err = windowEvents(data, c.prefill+c.timed)
		if err != nil {
			return nil, fmt.Errorf("watermark: %w", err)
		}
		d, _, err = measurePrepared(func() (func() error, error) { return fireWindows(ev, c.behind, c.prefill) })
		if err != nil {
			return nil, fmt.Errorf("watermark: %w", err)
		}
		m[c.name] = float64(d) / float64(c.timed)
	}

	vals := latencySamples(seed)
	d, _, err = measure(func() error {
		s := metrics.MustSketch()
		for _, v := range vals {
			s.Insert(v)
		}
		if s.Count() != int64(len(vals)) {
			return fmt.Errorf("metrics: sketch holds %d of %d", s.Count(), len(vals))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["metrics.sketch_insert_ns"] = float64(d) / float64(len(vals))
	return m, nil
}

// produce sends the dataset through a producer configured as the
// harness's data sender, on a broker with no cost model.
func produce(data [][]byte) (*broker.Broker, error) {
	b := broker.New()
	cfg := broker.TopicConfig{Partitions: 1, ReplicationFactor: 1, Timestamps: broker.LogAppendTime}
	if err := b.CreateTopic("input", cfg); err != nil {
		return nil, err
	}
	p, err := b.NewProducer(broker.ProducerConfig{Acks: broker.AcksLeader, BatchSize: 500})
	if err != nil {
		return nil, err
	}
	for _, rec := range data {
		if err := p.Send("input", nil, rec); err != nil {
			return nil, err
		}
	}
	return b, p.Close()
}

// fetch drains the input topic with Consumer.Poll.
func fetch(b *broker.Broker, want int) error {
	c, err := b.NewConsumer(broker.ConsumerConfig{})
	if err != nil {
		return err
	}
	if err := c.AssignAll("input"); err != nil {
		return err
	}
	got := 0
	for got < want {
		recs, err := c.Poll()
		if err != nil {
			return err
		}
		if len(recs) == 0 {
			return fmt.Errorf("drained %d of %d records", got, want)
		}
		got += len(recs)
	}
	return nil
}

// coderRoundTrips encodes and decodes every record through the coders
// a Beam query's elements cross: the KafkaIO record, the bare value, and
// the keyed value in front of GroupByKey.
func coderRoundTrips(data [][]byte) error {
	kafka, val := beam.KafkaRecordCoder{}, beam.BytesCoder{}
	ts := time.Unix(0, 0)
	for i, rec := range data {
		for _, step := range []struct {
			c beam.Coder
			v any
		}{
			{kafka, beam.KafkaRecord{Topic: "input", Offset: int64(i), Timestamp: ts, Value: rec}},
			{val, rec},
			{kvCoder, beam.KV{Key: "user", Value: rec}},
		} {
			wire, err := step.c.Encode(step.v)
			if err != nil {
				return err
			}
			if _, err := step.c.Decode(wire); err != nil {
				return err
			}
		}
	}
	return nil
}

var kvCoder = beam.KVCoder{Key: beam.StringUTF8Coder{}, Value: beam.BytesCoder{}}

// encodeKVs keys every record by user ID as WithKeys does, and derives
// the watermark each record allows, ahead of the timed GroupByKey calls.
func encodeKVs(data [][]byte) ([][]byte, []time.Time, error) {
	out := make([][]byte, len(data))
	wms := make([]time.Time, len(data))
	for i, rec := range data {
		user, err := queries.UserKey(rec)
		if err != nil {
			return nil, nil, err
		}
		if out[i], err = kvCoder.Encode(beam.KV{Key: string(user), Value: rec}); err != nil {
			return nil, nil, err
		}
		et, err := queries.EventTime(rec)
		if err != nil {
			return nil, nil, err
		}
		wms[i] = et.Add(-queries.WindowedCountBound)
	}
	return out, wms, nil
}

// groupByKey drives WindowedCount's GroupByKey state: every record is
// processed and followed by the watermark its event time allows.
func groupByKey(encoded [][]byte, wms []time.Time) error {
	ws := beam.WindowingStrategy{Fn: beam.FixedWindows{Size: queries.WindowedCountWindow}}.
		WithEventTime(queries.EventTimeOf, queries.WindowedCountBound)
	g, err := graphx.NewGBKState(graphx.GBKConfig{Windowing: ws, Input: kvCoder, Output: beam.GroupedCoder{}})
	if err != nil {
		return err
	}
	panes := 0
	emit := func([]byte) error { panes++; return nil }
	for i, rec := range encoded {
		if err := g.Process(rec, emit); err != nil {
			return err
		}
		if err := g.AdvanceWatermark(wms[i], emit); err != nil {
			return err
		}
	}
	if panes == 0 && len(encoded) > 2 {
		return fmt.Errorf("GroupByKey fired no pane over %d records", len(encoded))
	}
	return nil
}

// fireTimed10k is how many records are timed once 10k windows are open:
// each call re-sorts the whole open set.
const fireTimed10k = 2000

type windowEvent struct {
	t   time.Time
	key string
}

// windowEvents takes n (event time, user) pairs from the dataset,
// cycling it with its event times shifted past the previous cycle so
// that every window stays distinct.
func windowEvents(data [][]byte, n int) ([]windowEvent, error) {
	first, err := queries.EventTime(data[0])
	if err != nil {
		return nil, err
	}
	last, err := queries.EventTime(data[len(data)-1])
	if err != nil {
		return nil, err
	}
	cycle := last.Sub(first) + time.Second
	out := make([]windowEvent, n)
	for i := range out {
		rec := data[i%len(data)]
		t, err := queries.EventTime(rec)
		if err != nil {
			return nil, err
		}
		user, err := queries.UserKey(rec)
		if err != nil {
			return nil, err
		}
		out[i] = windowEvent{t.Add(time.Duration(i/len(data)) * cycle), string(user)}
	}
	return out, nil
}

// fireWindows returns a timed call that upserts a count per (1 s
// window, user) and fires with the watermark `behind` windows behind
// each event; the first prefill events are upserted untimed, so the
// open set starts at its steady size.
func fireWindows(ev []windowEvent, behind, prefill int) (func() error, error) {
	a, err := watermark.NewTumblingAssigner(time.Second)
	if err != nil {
		return nil, err
	}
	ws, err := watermark.NewWindowState[int64](a, nil)
	if err != nil {
		return nil, err
	}
	incr := func(c *int64) { *c++ }
	for _, e := range ev[:prefill] {
		ws.Upsert(e.t, e.key, incr)
	}
	emit := func(watermark.Pane[int64]) error { return nil }
	lag := time.Duration(behind) * time.Second
	return func() error {
		for _, e := range ev[prefill:] {
			ws.Upsert(e.t, e.key, incr)
			if err := ws.FireReady(e.t.Add(-lag), emit); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// latencySamples are sketch inputs shaped like event-time latencies:
// exponential with a 10 ms mean, deterministic in the seed.
func latencySamples(seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	out := make([]float64, 200_000)
	for i := range out {
		out[i] = rng.ExpFloat64() * 0.01
	}
	return out
}
