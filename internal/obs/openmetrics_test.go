package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"beambench/internal/metrics"
)

// populatedPlane builds a plane with one running cell exercising every
// family the writer knows.
func populatedPlane(t *testing.T) *Plane {
	t.Helper()
	p := NewPlane(500, 2)
	p.Expect([]string{`cell "weird\name`, "cell-two"})

	col := metrics.NewCollector()
	col.Stage("source").Mark(42)
	col.ObserveLatency(100 * time.Millisecond)

	run := NewRun(NewTracer(4).Scoped(`cell "weird\name/run0`), col, true,
		func() []LagSample { return []LagSample{{Topic: "input", Partition: 1, Lag: 9}} },
		func() (int64, int64, bool) { return 100, 42, true })
	run.Gauge("watermark-lag/op").SetTime(time.Unix(50, 0))

	p.Cell(`cell "weird\name`).StartRun(run)
	return p
}

func TestWriteOpenMetricsRoundTrip(t *testing.T) {
	p := populatedPlane(t)
	var buf bytes.Buffer
	if err := p.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.HasSuffix(text, "# EOF\n") {
		t.Fatalf("exposition missing # EOF terminator:\n%s", text)
	}

	fams, err := ParseOpenMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatalf("writer output does not parse: %v\n%s", err, text)
	}
	byName := map[string]MetricFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}

	// Every family must carry a TYPE and HELP.
	for _, f := range fams {
		if f.Type == "" || f.Help == "" {
			t.Fatalf("family %q missing type/help: %+v", f.Name, f)
		}
	}

	// Counter families expose _total samples.
	sr := byName[famStageRecords]
	if sr.Type != "counter" {
		t.Fatalf("%s type = %q, want counter", famStageRecords, sr.Type)
	}
	if len(sr.Points) != 1 || sr.Points[0].Name != famStageRecords+"_total" {
		t.Fatalf("stage records points = %+v", sr.Points)
	}
	if sr.Points[0].Value != 42 {
		t.Fatalf("stage records value = %v", sr.Points[0].Value)
	}
	// The hairy cell key round-trips through label escaping.
	if got := sr.Points[0].Labels["cell"]; got != `cell "weird\name` {
		t.Fatalf("cell label = %q", got)
	}

	lag := byName[famConsumerLag]
	if len(lag.Points) != 1 || lag.Points[0].Labels["partition"] != "1" || lag.Points[0].Value != 9 {
		t.Fatalf("consumer lag points = %+v", lag.Points)
	}
	wm := byName[famWatermarkLag]
	if len(wm.Points) != 1 || wm.Points[0].Labels["operator"] != "op" {
		t.Fatalf("watermark lag points = %+v", wm.Points)
	}
	cells := byName[famCells]
	stateTotals := map[string]float64{}
	for _, pt := range cells.Points {
		stateTotals[pt.Labels["state"]] = pt.Value
	}
	if stateTotals["running"] != 1 || stateTotals["pending"] != 1 {
		t.Fatalf("cell state samples = %+v", stateTotals)
	}
	if lq := byName[famLatencySec]; len(lq.Points) != 3 {
		t.Fatalf("latency quantile points = %+v", lq.Points)
	}
}

func TestWriteOpenMetricsNilPlane(t *testing.T) {
	var p *Plane
	var buf bytes.Buffer
	if err := p.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseOpenMetrics(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("nil plane exposition does not parse: %v", err)
	}
	if len(fams) == 0 {
		t.Fatal("nil plane exposition has no families")
	}
}

func TestParseOpenMetricsRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"missing EOF":        "# TYPE x gauge\n# HELP x x.\nx 1\n",
		"sample before TYPE": "y 1\n# EOF\n",
		"content after EOF":  "# EOF\nx 1\n",
		"bad value":          "# TYPE x gauge\n# HELP x x.\nx one\n# EOF\n",
		"unterminated block": "# TYPE x gauge\n# HELP x x.\nx{a=\"b 1\n# EOF\n",
	}
	for name, text := range cases {
		if _, err := ParseOpenMetrics(strings.NewReader(text)); err == nil {
			t.Errorf("%s: parsed without error:\n%s", name, text)
		}
	}
}

func TestEscapeLabelValue(t *testing.T) {
	in := "a\\b\"c\nd"
	want := `a\\b\"c\nd`
	if got := escapeLabelValue(in); got != want {
		t.Fatalf("escape = %q, want %q", got, want)
	}
	if got := escapeLabelValue("plain"); got != "plain" {
		t.Fatalf("plain value rewritten: %q", got)
	}
}
