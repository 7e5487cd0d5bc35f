package watermark

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"
	"testing"
	"time"
)

// stateCase is one non-merging assigner the WindowState behaviour tests
// run under; each test keys its expected panes, which read
// "<window start − epoch>:<key>=<count>", by the case name.
type stateCase struct {
	name     string
	assigner Assigner
}

func nonMergingCases(t *testing.T) []stateCase {
	t.Helper()
	tum, err := NewTumblingAssigner(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := NewSlidingAssigner(2*time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return []stateCase{{"tumbling", tum}, {"sliding", sl}}
}

func newCountState(t *testing.T, a Assigner) *WindowState[int64] {
	t.Helper()
	s, err := NewWindowState[int64](a, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func paneString(p Pane[int64]) string {
	return fmt.Sprintf("%v:%s=%d", p.Start.Sub(epoch), p.Key, p.Acc)
}

func collectPanes(t *testing.T, s *WindowState[int64], w time.Time) []string {
	t.Helper()
	var out []string
	err := s.FireReady(w, func(p Pane[int64]) error {
		out = append(out, paneString(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func inc(c *int64) { *c++ }

func TestWindowStateRejectsInvalidConfig(t *testing.T) {
	if _, err := NewWindowState[int64](nil, nil); err == nil {
		t.Error("nil assigner accepted")
	}
	sess, err := NewSessionAssigner(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWindowState[int64](sess, nil); err == nil {
		t.Error("merging assigner without a merge fn accepted")
	}
}

func TestWindowStateFiresInWindowThenFirstSeenOrder(t *testing.T) {
	want := map[string]struct {
		first, rest []string
		open        int
	}{
		"tumbling": {[]string{"0s:b=2", "0s:a=1"}, []string{"2s:z=1"}, 1},
		"sliding":  {[]string{"-1s:b=2", "-1s:a=1"}, []string{"0s:b=2", "0s:a=1", "1s:z=1", "2s:z=1"}, 3},
	}
	for _, tc := range nonMergingCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			s := newCountState(t, tc.assigner)
			// Feed out of window order; keys b then a within the first window.
			s.Upsert(epoch.Add(2500*time.Millisecond), "z", inc)
			s.Upsert(epoch.Add(100*time.Millisecond), "b", inc)
			s.Upsert(epoch.Add(200*time.Millisecond), "a", inc)
			s.Upsert(epoch.Add(900*time.Millisecond), "b", inc)

			if got := collectPanes(t, s, epoch.Add(999*time.Millisecond)); len(got) != 0 {
				t.Fatalf("fired %v before the watermark passed any window end", got)
			}
			w := want[tc.name]
			if got := collectPanes(t, s, epoch.Add(time.Second)); !slices.Equal(got, w.first) {
				t.Errorf("panes = %v, want %v", got, w.first)
			}
			if s.Open() != w.open {
				t.Errorf("open windows = %d, want %d", s.Open(), w.open)
			}
			var rest []string
			if err := s.FireAll(func(p Pane[int64]) error {
				rest = append(rest, paneString(p))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(rest, w.rest) {
				t.Errorf("FireAll = %v, want %v", rest, w.rest)
			}
			if s.Open() != 0 {
				t.Errorf("open windows after FireAll = %d, want 0", s.Open())
			}
		})
	}
}

func TestWindowStateMultipleReadyWindowsFireAscending(t *testing.T) {
	want := map[string][]string{
		"tumbling": {"0s:k0=1", "1s:k1=1", "2s:k2=1", "3s:k3=1", "4s:k4=1"},
		// Records arrive newest first, so within each shared window the
		// later record's key is seen first.
		"sliding": {"-1s:k0=1", "0s:k1=1", "0s:k0=1", "1s:k2=1", "1s:k1=1",
			"2s:k3=1", "2s:k2=1", "3s:k4=1", "3s:k3=1"},
	}
	for _, tc := range nonMergingCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			s := newCountState(t, tc.assigner)
			for i := 4; i >= 0; i-- {
				s.Upsert(epoch.Add(time.Duration(i)*time.Second), fmt.Sprintf("k%d", i), inc)
			}
			if got := collectPanes(t, s, epoch.Add(5*time.Second)); !slices.Equal(got, want[tc.name]) {
				t.Errorf("panes = %v, want %v (ascending window order)", got, want[tc.name])
			}
		})
	}
}

func TestWindowStateEmitErrorKeepsUnfiredPanes(t *testing.T) {
	want := map[string][]string{
		"tumbling": {"0s:a=1", "0s:b=1"},
		"sliding":  {"-1s:a=1", "-1s:b=1", "0s:a=1", "0s:b=1"},
	}
	for _, tc := range nonMergingCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			s := newCountState(t, tc.assigner)
			s.Upsert(epoch, "a", inc)
			s.Upsert(epoch, "b", inc)
			boom := errors.New("boom")
			calls := 0
			err := s.FireAll(func(Pane[int64]) error {
				calls++
				return boom
			})
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want boom", err)
			}
			if calls != 1 {
				t.Fatalf("emit called %d times, want 1", calls)
			}
			// The failed pane and the unfired ones are all still present.
			if got := collectPanes(t, s, EndOfTime); !slices.Equal(got, want[tc.name]) {
				t.Errorf("retry fired %v, want %v", got, want[tc.name])
			}
		})
	}
}

// TestWindowStateEmitErrorInLaterWindowRetries pins the error-path
// bookkeeping: when an earlier window fires completely and a LATER
// window's emit errors, a retry must fire only the remaining panes —
// not panic on the already-removed window, and not re-emit it.
func TestWindowStateEmitErrorInLaterWindowRetries(t *testing.T) {
	want := map[string][]string{
		"tumbling": {"1s:b=1"},
		"sliding":  {"0s:a=1", "0s:b=1", "1s:b=1"},
	}
	for _, tc := range nonMergingCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			s := newCountState(t, tc.assigner)
			s.Upsert(epoch, "a", inc)
			s.Upsert(epoch.Add(time.Second), "b", inc)
			boom := errors.New("boom")
			calls := 0
			err := s.FireAll(func(Pane[int64]) error {
				calls++
				if calls == 2 {
					return boom // fail in the second window after the first fired cleanly
				}
				return nil
			})
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want boom", err)
			}
			if got := collectPanes(t, s, EndOfTime); !slices.Equal(got, want[tc.name]) {
				t.Errorf("retry fired %v, want %v", got, want[tc.name])
			}
		})
	}
}

// paneModel is the reference WindowState is checked against: every
// unfired pane in one slice in creation order, stable-sorted by window
// (end, start) at each fire, so first-seen key order within a window
// falls out of the sort's stability.
type paneModel struct {
	assigner Assigner
	pending  []Pane[[]int]
}

func (m *paneModel) upsert(t time.Time, key string, v int) {
	for _, span := range m.assigner.Assign(t) {
		i := slices.IndexFunc(m.pending, func(p Pane[[]int]) bool {
			return p.Start.Equal(span.Start) && p.End.Equal(span.End) && p.Key == key
		})
		if i < 0 {
			i = len(m.pending)
			m.pending = append(m.pending, Pane[[]int]{Start: span.Start, End: span.End, Key: key})
		}
		m.pending[i].Acc = append(m.pending[i].Acc, v)
	}
}

func (m *paneModel) fire(w time.Time, emit func(Pane[[]int]) error) error {
	slices.SortStableFunc(m.pending, func(a, b Pane[[]int]) int {
		if c := a.End.Compare(b.End); c != 0 {
			return c
		}
		return a.Start.Compare(b.Start)
	})
	for len(m.pending) > 0 && !w.Before(m.pending[0].End) {
		if err := emit(m.pending[0]); err != nil {
			return err
		}
		m.pending = m.pending[1:]
	}
	return nil
}

func (m *paneModel) open() int {
	spans := map[Span]bool{}
	for _, p := range m.pending {
		spans[Span{p.Start, p.End}] = true
	}
	return len(spans)
}

// TestWindowStateMatchesModel drives seeded random Upsert/FireReady
// interleavings — bounded event-time disorder plus some late records,
// windows with up to 20 keys (either side of the linear-scan limit),
// random emit failures and their retries —
// through WindowState and the sort-everything model, and requires the
// same pane sequence and open-window count after every step.
func TestWindowStateMatchesModel(t *testing.T) {
	tum, err := NewTumblingAssigner(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := NewSlidingAssigner(3*time.Second, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 20)
	for i := range keys {
		keys[i] = "k" + strconv.Itoa(i)
	}
	const bound = 1500 * time.Millisecond
	for _, a := range []Assigner{tum, sl} {
		for seed := uint64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", a.Name(), seed), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(seed, 0xfeed))
				s, err := NewWindowState[[]int](a, nil)
				if err != nil {
					t.Fatal(err)
				}
				m := &paneModel{assigner: a}
				maxSeen := epoch
				// Even seeds crowd up to 20 keys into a window, past the
				// linear-scan limit; odd seeds keep every window within it.
				maxGapMs, nkeys := 80, len(keys)
				if seed%2 == 1 {
					maxGapMs, nkeys = 280, linearKeys-2
				}
				// fire runs one FireReady on both sides; the emit fails on
				// call failAt (never when negative), identically on each.
				fire := func(step int, w time.Time, failAt int) {
					var got, want []string
					record := func(out *[]string) func(Pane[[]int]) error {
						calls := 0
						return func(p Pane[[]int]) error {
							calls++
							if calls == failAt {
								return errors.New("emit failed")
							}
							*out = append(*out, fmt.Sprintf("%v-%v:%s=%v", p.Start.Sub(epoch), p.End.Sub(epoch), p.Key, p.Acc))
							return nil
						}
					}
					gotErr := s.FireReady(w, record(&got))
					wantErr := m.fire(w, record(&want))
					if (gotErr != nil) != (wantErr != nil) || !slices.Equal(got, want) {
						t.Fatalf("step %d: FireReady(%v) = %v, err %v; model %v, err %v",
							step, w.Sub(epoch), got, gotErr, want, wantErr)
					}
				}
				for step := 0; step < 1500; step++ {
					if rng.IntN(4) > 0 {
						maxSeen = maxSeen.Add(time.Duration(rng.IntN(maxGapMs)) * time.Millisecond)
						behind := rng.Int64N(int64(bound))
						if rng.IntN(10) == 0 {
							// A late record: it may land in a window that
							// already fired, wholly or up to an emit error.
							behind += rng.Int64N(int64(3 * time.Second))
						}
						et := maxSeen.Add(-time.Duration(behind))
						key := keys[rng.IntN(nkeys)]
						s.Upsert(et, key, func(acc *[]int) { *acc = append(*acc, step) })
						m.upsert(et, key, step)
					} else {
						failAt := -1
						if rng.IntN(3) == 0 {
							failAt = 1 + rng.IntN(6)
						}
						fire(step, maxSeen.Add(-bound), failAt)
					}
					if got, want := s.Open(), m.open(); got != want {
						t.Fatalf("step %d: Open() = %d, model %d", step, got, want)
					}
				}
				fire(-1, EndOfTime, -1)
				if s.Open() != 0 {
					t.Fatalf("Open() after FireAll = %d, want 0", s.Open())
				}
			})
		}
	}
}

// BenchmarkWindowStateFire measures the per-record cost of a windowed
// operator that receives a watermark with every record: one Upsert
// opening a new 1 s window and one FireReady releasing the oldest, with
// the open set held at a steady size.
func BenchmarkWindowStateFire(b *testing.B) {
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = "user" + strconv.Itoa(i)
	}
	a, err := NewTumblingAssigner(time.Second)
	if err != nil {
		b.Fatal(err)
	}
	emit := func(Pane[int64]) error { return nil }
	for _, open := range []int{3, 10_000} {
		b.Run(fmt.Sprintf("open=%d", open), func(b *testing.B) {
			s, err := NewWindowState[int64](a, nil)
			if err != nil {
				b.Fatal(err)
			}
			at := func(i int) time.Time { return epoch.Add(time.Duration(i) * time.Second) }
			for i := range open {
				s.Upsert(at(i), keys[i%len(keys)], inc)
			}
			b.ReportAllocs()
			i := open
			for b.Loop() {
				s.Upsert(at(i), keys[i%len(keys)], inc)
				if err := s.FireReady(at(i-open+1), emit); err != nil {
					b.Fatal(err)
				}
				i++
			}
			if s.Open() != open {
				b.Fatalf("open windows = %d, want %d", s.Open(), open)
			}
		})
	}
}
