package queries

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// TestKeyedStateFiresOnWatermark pins the control-event contract every
// engine adapter relies on, for each shared keyed executor: no pane
// fires before the watermark reaches the window end, the ready panes
// fire once it does, Flush drains the rest, and a malformed record is
// an error.
func TestKeyedStateFiresOnWatermark(t *testing.T) {
	epoch := time.Date(2006, time.March, 1, 0, 0, 0, 0, time.UTC)
	mk := func(user string, sec int, rank string) []byte {
		ts := epoch.Add(time.Duration(sec) * time.Second).Format("2006-01-02 15:04:05")
		return []byte(user + "\tq\t" + ts + "\t" + rank + "\t")
	}
	row := func(startSec int, rest string) string {
		return fmt.Sprintf("%d\t%s", epoch.Unix()+int64(startSec), rest)
	}
	for _, tc := range []struct {
		name     string
		newState func() keyedState
		records  [][]byte
		// end is the end of the first window to fire; fired are its
		// panes, flushed the panes left for Flush.
		end       time.Time
		fired     []string
		flushed   []string
		malformed []byte
	}{
		{
			name:     "join",
			newState: newJoinState,
			records: [][]byte{
				TagSideA(mk("u", 0, "")),
				TagSideB(mk("u", 0, "4")),
				TagSideA(mk("u", 1, "")), // next window: no click, joins nothing
			},
			end:       epoch.Add(JoinWindow),
			fired:     []string{row(0, "u\tq\t4")},
			malformed: []byte("no tag"),
		},
		{
			name:     "windowedcount",
			newState: newWindowedCountState,
			records: [][]byte{
				mk("u", 0, ""),
				mk("v", 0, "3"),
				mk("u", 0, "4"),
				mk("u", 1, ""),
			},
			end:       epoch.Add(WindowedCountWindow),
			fired:     []string{row(0, "u\t2"), row(0, "v\t1")},
			flushed:   []string{row(1, "u\t1")},
			malformed: []byte("u\tq"), // no query-time column
		},
		{
			name:     "slidingsum",
			newState: newSlidingSumState,
			records: [][]byte{
				mk("u", 0, "4"), // windows [-1s, 1s) and [0s, 2s)
				mk("u", 1, "3"), // windows [0s, 2s) and [1s, 3s)
			},
			end:       epoch.Add(SlidingSumSlide),
			fired:     []string{row(-1, "u\t4")},
			flushed:   []string{row(0, "u\t7"), row(1, "u\t3")},
			malformed: mk("u", 0, "x"), // unparsable item rank
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.newState()
			for _, rec := range tc.records {
				if err := s.Process(rec); err != nil {
					t.Fatal(err)
				}
			}
			var got []string
			emit := func(row []byte) error { got = append(got, string(row)); return nil }
			if err := s.Fire(tc.end.Add(-time.Nanosecond), emit); err != nil {
				t.Fatal(err)
			}
			if len(got) != 0 {
				t.Fatalf("panes fired before the watermark reached %v: %q", tc.end, got)
			}
			if err := s.Fire(tc.end, emit); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.fired) {
				t.Fatalf("fired at %v = %q, want %q", tc.end, got, tc.fired)
			}
			got = nil
			if err := s.Flush(emit); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.flushed) {
				t.Errorf("flushed = %q, want %q", got, tc.flushed)
			}
			if err := s.Process(tc.malformed); err == nil {
				t.Errorf("malformed record %q accepted", tc.malformed)
			}
		})
	}
}

// TestKeyedStateProcessAllocs pins the per-record allocations the
// hotalloc annotations on the executors' Process paths rely on: the
// pane key string and the window assigner's span slice allocate (plus
// the join's copy of the query text), while the Upsert closures stay on
// the stack and item-rank and event-time parsing allocate nothing.
func TestKeyedStateProcessAllocs(t *testing.T) {
	rec := []byte("12345\tweather\t2006-03-01 00:00:02\t7\thttp://www.example.com/")
	for _, tc := range []struct {
		name     string
		newState func() keyedState
		rec      []byte
		want     float64
	}{
		{"windowedcount", newWindowedCountState, rec, 2}, // key, one span
		{"slidingsum", newSlidingSumState, rec, 3},       // key, span slice grown to two
		{"join/A", newJoinState, TagSideA(rec), 3},       // key, one span, query text
		{"join/B", newJoinState, TagSideB(rec), 2},       // key, one span
	} {
		s := tc.newState()
		if got := testing.AllocsPerRun(100, func() { _ = s.Process(tc.rec) }); got > tc.want {
			t.Errorf("%s: Process allocates %v per record, want <= %v", tc.name, got, tc.want)
		}
	}
	lenient := []byte("12345\tweather\t2006-03-01 0:00:02\t7\t") // one-digit hour: time.Parse fallback
	for name, fn := range map[string]func(){
		"ItemRank":           func() { _, _ = ItemRank(rec) },
		"EventTime":          func() { _, _ = EventTime(rec) },
		"EventTime/fallback": func() { _, _ = EventTime(lenient) },
	} {
		if got := testing.AllocsPerRun(100, fn); got != 0 {
			t.Errorf("%s allocates %v per record, want 0", name, got)
		}
	}
}
