package queries

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"beambench/internal/beam/runner/direct"
	"beambench/internal/spark"
)

func TestTaggedRecordRoundTrip(t *testing.T) {
	rec := []byte("12345\tweather\t2006-03-01 00:00:02\t7\thttp://www.example.com/")
	for _, tc := range []struct {
		tagged []byte
		side   byte
	}{
		{TagSideA(rec), 'A'},
		{TagSideB(rec), 'B'},
	} {
		side, payload, err := taggedParts(tc.tagged)
		if err != nil {
			t.Fatal(err)
		}
		if side != tc.side || string(payload) != string(rec) {
			t.Errorf("taggedParts = %c/%q, want %c/%q", side, payload, tc.side, rec)
		}
		et, err := TaggedEventTime(tc.tagged)
		if err != nil {
			t.Fatal(err)
		}
		if want := time.Date(2006, time.March, 1, 0, 0, 2, 0, time.UTC); !et.Equal(want) {
			t.Errorf("TaggedEventTime = %v, want %v", et, want)
		}
		user, err := TaggedUserKey(tc.tagged)
		if err != nil {
			t.Fatal(err)
		}
		if string(user) != "12345" {
			t.Errorf("TaggedUserKey = %q, want 12345", user)
		}
	}
	for _, bad := range [][]byte{nil, []byte("X\tpayload"), []byte("A"), []byte("Apayload")} {
		if _, _, err := taggedParts(bad); err == nil {
			t.Errorf("taggedParts(%q) accepted", bad)
		}
	}
}

func TestQueryTextColumn(t *testing.T) {
	rec := []byte("12345\tweather forecast\t2006-03-01 00:00:00\t\t")
	if got := string(QueryText(rec)); got != "weather forecast" {
		t.Errorf("QueryText = %q, want %q", got, "weather forecast")
	}
}

func TestGroupedValueBytes(t *testing.T) {
	if b, err := GroupedValueBytes([]byte("x")); err != nil || string(b) != "x" {
		t.Errorf("GroupedValueBytes([]byte) = %q, %v", b, err)
	}
	// Engine runners round-trip pane values through the Grouped coder
	// boundary, which decodes them as strings.
	if b, err := GroupedValueBytes("y"); err != nil || string(b) != "y" {
		t.Errorf("GroupedValueBytes(string) = %q, %v", b, err)
	}
	if _, err := GroupedValueBytes(42); err == nil {
		t.Error("GroupedValueBytes(int) accepted")
	}
}

func TestJoinPairsCrossProduct(t *testing.T) {
	mk := func(user string, sec int, rank string) []byte {
		ts := time.Date(2006, time.March, 1, 0, 0, sec, 0, time.UTC).Format("2006-01-02 15:04:05")
		return []byte(user + "\tq" + fmt.Sprint(sec) + "\t" + ts + "\t" + rank + "\t")
	}
	start := time.Date(2006, time.March, 1, 0, 0, 0, 0, time.UTC)
	tagged := []any{
		TagSideA(mk("u", 0, "")),
		string(TagSideB(mk("u", 0, "3"))), // string form: the coder-boundary shape
		TagSideA(mk("u", 0, "5")),
		TagSideB(mk("u", 0, "5")),
	}
	var got []string
	if err := JoinPairs(start, []byte("u"), tagged, func(row []byte) error {
		got = append(got, string(row))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// A-major cross product over the 2x2 sides.
	base := start.Unix()
	want := []string{
		fmt.Sprintf("%d\tu\tq0\t3", base),
		fmt.Sprintf("%d\tu\tq0\t5", base),
		fmt.Sprintf("%d\tu\tq0\t3", base),
		fmt.Sprintf("%d\tu\tq0\t5", base),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("JoinPairs = %v, want %v", got, want)
	}
}

// TestExpectedJoinsInnerSemantics checks the dataset-derived reference:
// every record joins with the clicks of its (window, user), and users
// without clicks in a window produce nothing.
func TestExpectedJoinsInnerSemantics(t *testing.T) {
	mk := func(user string, sec int, rank string) []byte {
		ts := time.Date(2006, time.March, 1, 0, 0, sec, 0, time.UTC).Format("2006-01-02 15:04:05")
		return []byte(user + "\tq" + fmt.Sprint(sec) + "\t" + ts + "\t" + rank + "\t")
	}
	data := [][]byte{
		mk("u1", 0, "2"), // side A and side B
		mk("u1", 0, ""),  // side A only
		mk("u2", 0, ""),  // u2 has no click: no output
		mk("u1", 3, ""),  // later window, no click: no output
	}
	got, err := ExpectedJoins(data)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2006, time.March, 1, 0, 0, 0, 0, time.UTC).Unix()
	want := []string{
		fmt.Sprintf("%d\tu1\tq0\t2", base),
		fmt.Sprintf("%d\tu1\tq0\t2", base),
	}
	gotS := make([]string, len(got))
	for i, g := range got {
		gotS[i] = string(g)
	}
	sort.Strings(gotS)
	sort.Strings(want)
	if !reflect.DeepEqual(gotS, want) {
		t.Errorf("ExpectedJoins = %v, want %v", gotS, want)
	}
}

// TestJoinSubSecondDatasetAcrossImplementations packs several records
// per event second into each join window and checks native Spark and
// the Beam direct runner against the dataset-derived reference as
// sorted multisets.
func TestJoinSubSecondDatasetAcrossImplementations(t *testing.T) {
	data := subSecondDataset(t, 300)
	wantPayloads, err := ExpectedJoins(data)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(wantPayloads))
	for i, p := range wantPayloads {
		want[i] = string(p)
	}
	sort.Strings(want)
	if len(want) == 0 {
		t.Fatal("empty reference")
	}

	outputs := map[string][]string{}
	{
		w := newWorkload(t, data)
		cluster, err := spark.NewCluster(spark.ClusterConfig{})
		if err != nil {
			t.Fatal(err)
		}
		cluster.Start()
		ssc, err := spark.NewStreamingContext(cluster, spark.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := NativeSpark(ssc, w, Join); err != nil {
			t.Fatal(err)
		}
		if _, err := ssc.RunBounded(); err != nil {
			t.Fatal(err)
		}
		cluster.Stop()
		outputs["spark"] = outputPayloads(t, w)
	}
	{
		w := newWorkload(t, data)
		p, err := BeamPipeline(w, Join)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := direct.Run(p); err != nil {
			t.Fatal(err)
		}
		outputs["beam-direct"] = outputPayloads(t, w)
	}
	for name, got := range outputs {
		sorted := append([]string(nil), got...)
		sort.Strings(sorted)
		if !reflect.DeepEqual(sorted, want) {
			t.Errorf("%s: sorted output (%d rows) differs from reference (%d rows)",
				name, len(sorted), len(want))
		}
	}
}
