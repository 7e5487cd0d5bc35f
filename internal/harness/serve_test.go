package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"beambench/internal/beam"
	"beambench/internal/obs"
	"beambench/internal/queries"
	"beambench/internal/simcost"
)

// scrapeClient returns a client whose idle connections are torn down at
// test end, keeping the package's goleak gate clean.
func scrapeClient(t *testing.T) *http.Client {
	t.Helper()
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	return &http.Client{Transport: tr, Timeout: 10 * time.Second}
}

func scrape(c *http.Client, url string) (string, error) {
	resp, err := c.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(body), nil
}

// counterKey identifies one counter sample across scrapes by family and
// full label set.
func counterKey(p obs.MetricPoint) string {
	var sb strings.Builder
	sb.WriteString(p.Name)
	for _, k := range []string{"cell", "stage", "topic", "partition", "operator", "state", "quantile"} {
		if v, ok := p.Labels[k]; ok {
			sb.WriteString("|" + k + "=" + v)
		}
	}
	return sb.String()
}

// TestServeMidRunConformance runs a windowed stream-mode cell with the
// telemetry plane attached and scrapes /metrics and /snapshot
// throughout: every scrape must parse as OpenMetrics with TYPE and HELP
// on every family, counters must be monotonic across scrapes, and the
// final snapshot must show the cell done. Several scrapers hammer the
// server concurrently with the run, so the whole path is exercised
// under -race.
func TestServeMidRunConformance(t *testing.T) {
	const records = 2_000
	plane := obs.NewPlane(records, 1)
	r, err := New(Config{
		Records:           records,
		Runs:              1,
		DisableNoise:      true,
		CollectMetrics:    true,
		Ingest:            IngestStream,
		RateRecordsPerSec: 4_000, // ~0.5s sending window: scrapes land mid-run
		Plane:             plane,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := plane.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close server: %v", err)
		}
	}()

	setup := Setup{System: SystemFlink, API: APIBeam, Query: queries.WindowedCount, Parallelism: 2}
	done := make(chan struct{})
	var runErr error
	go func() {
		defer close(done)
		_, runErr = r.RunCell(setup)
	}()

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	scrapes := make([]int, 4)
	for i := range scrapes {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			tr := &http.Transport{}
			defer tr.CloseIdleConnections()
			c := &http.Client{Transport: tr, Timeout: 10 * time.Second}
			// Each scraper checks monotonicity over its own ordered
			// sequence of scrapes.
			last := map[string]float64{}
			for {
				select {
				case <-done:
					return
				default:
				}
				body, err := scrape(c, srv.URL()+"/metrics")
				if err != nil {
					errc <- err
					return
				}
				fams, err := obs.ParseOpenMetrics(strings.NewReader(body))
				if err != nil {
					errc <- fmt.Errorf("scrape %d does not parse: %w", scrapes[idx], err)
					return
				}
				for _, f := range fams {
					if f.Type == "" || f.Help == "" {
						errc <- fmt.Errorf("family %q missing TYPE/HELP", f.Name)
						return
					}
					if f.Type != "counter" {
						continue
					}
					for _, p := range f.Points {
						k := counterKey(p)
						if prev, ok := last[k]; ok && p.Value < prev {
							errc <- fmt.Errorf("counter %s went backwards: %v -> %v", k, prev, p.Value)
							return
						}
						last[k] = p.Value
					}
				}
				if body, err = scrape(c, srv.URL()+"/snapshot"); err != nil {
					errc <- err
					return
				}
				var snap obs.Snapshot
				if err := json.Unmarshal([]byte(body), &snap); err != nil {
					errc <- fmt.Errorf("/snapshot does not decode: %w", err)
					return
				}
				if snap.Schema != obs.SnapshotSchemaVersion {
					errc <- fmt.Errorf("/snapshot schema = %d", snap.Schema)
					return
				}
				scrapes[idx]++
				time.Sleep(2 * time.Millisecond)
			}
		}(i)
	}
	wg.Wait()
	<-done
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if runErr != nil {
		t.Fatalf("run failed under scraping: %v", runErr)
	}
	total := 0
	for _, n := range scrapes {
		total += n
	}
	if total == 0 {
		t.Fatal("no scrape completed while the cell ran")
	}

	// Final state: the cell is done, one run completed, and the plane
	// still serves a conformant exposition.
	c := scrapeClient(t)
	body, err := scrape(c, srv.URL()+"/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Progress.Done != 1 || snap.Progress.Running != 0 {
		t.Fatalf("final progress = %+v", snap.Progress)
	}
	if len(snap.Cells) != 1 {
		t.Fatalf("final snapshot cells = %+v", snap.Cells)
	}
	cell := snap.Cells[0]
	if cell.State != obs.CellDone || cell.RunsDone != 1 {
		t.Fatalf("final cell = %+v", cell)
	}
	if cell.OutputRecords <= 0 || cell.InputRecords != records {
		t.Fatalf("final cell offsets: in=%d out=%d", cell.InputRecords, cell.OutputRecords)
	}
	if len(cell.Stages) == 0 {
		t.Fatal("final cell has no stage snapshots")
	}
	if cell.Latency == nil || cell.Latency.Count <= 0 {
		t.Fatalf("final cell latency = %+v", cell.Latency)
	}

	body, err = scrape(c, srv.URL()+"/metrics")
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseOpenMetrics(strings.NewReader(body))
	if err != nil {
		t.Fatalf("final exposition does not parse: %v", err)
	}
	names := obs.FamilyNames(fams)
	for _, want := range []string{
		"beambench_uptime_seconds",
		"beambench_workload_records",
		"beambench_cells",
		"beambench_cell_runs_completed",
		"beambench_stage_records",
		"beambench_latency_seconds",
	} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("final exposition missing family %s (have %v)", want, names)
		}
	}
}

// TestSkippedCellReachesPlane checks the skip path: an unsupported
// setup must land on the plane as skipped with the reason attached.
func TestSkippedCellReachesPlane(t *testing.T) {
	orig := nativeExecutors[SystemApex]
	defer func() { nativeExecutors[SystemApex] = orig }()
	nativeExecutors[SystemApex] = func(r *Runner, setup Setup, w queries.Workload, sim *simcost.Simulator, tel *obs.Run) error {
		return fmt.Errorf("stub: %w: pretend the engine cannot run %s", beam.ErrUnsupported, setup.Query)
	}
	plane := obs.NewPlane(50, 1)
	r, err := New(Config{Records: 50, Runs: 1, DisableNoise: true, Plane: plane})
	if err != nil {
		t.Fatal(err)
	}
	setup := Setup{System: SystemApex, API: APINative, Query: queries.Grep, Parallelism: 1}
	res, err := r.RunCell(setup)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || !res[0].Skipped {
		t.Fatalf("results = %+v, want one skipped", res)
	}
	snap := plane.Snapshot()
	if len(snap.Cells) != 1 {
		t.Fatalf("snapshot cells = %+v", snap.Cells)
	}
	if snap.Cells[0].State != obs.CellSkipped || snap.Cells[0].SkipReason == "" {
		t.Fatalf("cell = %+v", snap.Cells[0])
	}
	if snap.Progress.Skipped != 1 {
		t.Fatalf("progress = %+v", snap.Progress)
	}
}
