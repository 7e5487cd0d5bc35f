package metrics

import (
	"fmt"
	"math"
	"slices"
)

// Target is one quantile the sketch must answer accurately: a query for
// Quantile q returns a value whose rank is within Epsilon*n of q*n.
// Tighter epsilons on higher quantiles keep the tail accurate without
// paying tail-grade space for the median.
type Target struct {
	Quantile float64
	Epsilon  float64
}

// DefaultTargets returns the benchmark's latency quantiles: the median,
// p90 and p99, with the error budget concentrated on the tail.
func DefaultTargets() []Target {
	return []Target{
		{Quantile: 0.50, Epsilon: 0.010},
		{Quantile: 0.90, Epsilon: 0.005},
		{Quantile: 0.99, Epsilon: 0.001},
	}
}

// sample is one stored tuple of the CKMS summary: a value, the number of
// observations it stands for (g), and the uncertainty of its rank
// (delta). The classic invariant g_i + delta_i <= f(r_i, n) bounds the
// rank error of any query.
type sample struct {
	v     float64
	g     int64
	delta int64
}

// insertBuffer is how many observations are buffered before they are
// sorted and merged into the summary in one pass. Buffering amortizes
// the merge so Insert is O(1) amortized on the hot path; a larger
// buffer trades a slightly higher per-flush sort cost for fewer
// merge/compress walks over the summary.
const insertBuffer = 2048

// Sketch estimates quantiles of a stream within the per-target error
// guarantees, using space logarithmic in the stream length. It is not
// safe for concurrent use; Collector serializes access for producers.
type Sketch struct {
	targets []Target
	// above[i] and below[i] are the precomputed invariant coefficients
	// 2ε/φ and 2ε/(1-φ) of target i, so the hot path divides nothing.
	above   []float64
	below   []float64
	samples []sample // sorted by v
	scratch []sample // reused merge buffer
	buf     []float64
	n       int64
	min     float64
	max     float64
}

// NewSketch returns an empty sketch answering the given targets
// (DefaultTargets when none are given).
func NewSketch(targets ...Target) (*Sketch, error) {
	if len(targets) == 0 {
		targets = DefaultTargets()
	}
	for _, t := range targets {
		if t.Quantile <= 0 || t.Quantile >= 1 {
			return nil, fmt.Errorf("metrics: target quantile %v outside (0,1)", t.Quantile)
		}
		if t.Epsilon <= 0 || t.Epsilon >= 1 {
			return nil, fmt.Errorf("metrics: target epsilon %v outside (0,1)", t.Epsilon)
		}
	}
	s := &Sketch{
		targets: append([]Target(nil), targets...),
		above:   make([]float64, len(targets)),
		below:   make([]float64, len(targets)),
		buf:     make([]float64, 0, insertBuffer),
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
	for i, t := range targets {
		s.above[i] = 2 * t.Epsilon / t.Quantile
		s.below[i] = 2 * t.Epsilon / (1 - t.Quantile)
	}
	return s, nil
}

// MustSketch is NewSketch for statically known targets.
func MustSketch(targets ...Target) *Sketch {
	s, err := NewSketch(targets...)
	if err != nil {
		panic(err)
	}
	return s
}

// Insert adds one observation.
func (s *Sketch) Insert(v float64) {
	s.buf = append(s.buf, v)
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	if len(s.buf) == cap(s.buf) {
		s.flush()
	}
}

// Count reports the number of observations inserted.
func (s *Sketch) Count() int64 { return s.n + int64(len(s.buf)) }

// Min returns the smallest observation, exactly (0 when empty).
func (s *Sketch) Min() float64 {
	if s.Count() == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation, exactly (0 when empty).
func (s *Sketch) Max() float64 {
	if s.Count() == 0 {
		return 0
	}
	return s.max
}

// invariant is f(r, n) of the targeted-quantile CKMS variant: the
// maximum permissible g+delta for a sample at rank r, the minimum over
// all targets of the error each one tolerates there.
func (s *Sketch) invariant(r float64) float64 {
	n := float64(s.n)
	m := math.MaxFloat64
	for i, t := range s.targets {
		var f float64
		if t.Quantile*n <= r {
			f = s.above[i] * r
		} else {
			f = s.below[i] * (n - r)
		}
		if f < m {
			m = f
		}
	}
	if m < 1 {
		m = 1
	}
	return m
}

// flush sorts the buffered observations, merges them into the summary
// in one linear pass, and compresses.
func (s *Sketch) flush() {
	if len(s.buf) == 0 {
		return
	}
	slices.Sort(s.buf)
	if cap(s.scratch) < len(s.samples)+len(s.buf) {
		s.scratch = make([]sample, 0, 2*(len(s.samples)+len(s.buf)))
	}
	merged := s.scratch[:0]
	var r float64 // rank mass of merged samples preceding the insert point
	i := 0
	for _, v := range s.buf {
		for i < len(s.samples) && s.samples[i].v <= v {
			r += float64(s.samples[i].g)
			merged = append(merged, s.samples[i])
			i++
		}
		var delta int64
		if len(merged) > 0 && i < len(s.samples) {
			// Mid-stream insert: the new sample's rank is uncertain by
			// the invariant's budget at its position. End inserts are
			// exact (they become the new min or max).
			delta = int64(math.Floor(s.invariant(r))) - 1
			if delta < 0 {
				delta = 0
			}
		}
		merged = append(merged, sample{v: v, g: 1, delta: delta})
		r++
		s.n++
	}
	merged = append(merged, s.samples[i:]...)
	// The old samples slice becomes the next flush's merge buffer.
	s.scratch = s.samples[:0]
	s.samples = merged
	s.buf = s.buf[:0]
	s.compress()
}

// compress merges adjacent samples whose combined weight still satisfies
// the invariant, scanning from the high end as in the paper.
func (s *Sketch) compress() {
	if len(s.samples) < 3 {
		return
	}
	out := s.samples[:0]
	// Walk forward, greedily merging each sample into its successor when
	// the combined weight respects the invariant at the sample's own
	// rank (the rank including it — evaluating one position early would
	// overstate the budget on the biased side); always keep the first
	// and last sample exact.
	r := float64(0)
	keep := s.samples[0]
	for i := 1; i < len(s.samples); i++ {
		next := s.samples[i]
		canMerge := len(out) > 0 && // never merge away the minimum
			float64(keep.g+next.g+next.delta) <= s.invariant(r+float64(keep.g))
		if canMerge {
			next.g += keep.g
			keep = next
			continue
		}
		r += float64(keep.g)
		out = append(out, keep)
		keep = next
	}
	out = append(out, keep)
	s.samples = out
}

// Quantile returns the estimated q-quantile (0 < q < 1). For accuracy
// within a guarantee, q should be one of the configured targets; other
// quantiles are answered on a best-effort basis. Returns 0 on an empty
// sketch.
func (s *Sketch) Quantile(q float64) float64 {
	s.flush()
	if s.n == 0 {
		return 0
	}
	if len(s.samples) == 1 {
		return s.samples[0].v
	}
	t := math.Ceil(q * float64(s.n))
	t += math.Ceil(s.invariant(t) / 2)
	prev := s.samples[0]
	var r float64
	for _, c := range s.samples[1:] {
		r += float64(prev.g)
		if r+float64(c.g+c.delta) > t {
			return prev.v
		}
		prev = c
	}
	return prev.v
}

// SampleCount reports how many tuples the summary currently stores (the
// sketch's space), for tests and capacity planning.
func (s *Sketch) SampleCount() int {
	s.flush()
	return len(s.samples)
}

// Reset empties the sketch, keeping its targets.
func (s *Sketch) Reset() {
	s.samples = s.samples[:0]
	s.buf = s.buf[:0]
	s.n = 0
	s.min = math.Inf(1)
	s.max = math.Inf(-1)
}
