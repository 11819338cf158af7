package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"cloudwalker/internal/core"
)

// tinyConfig shrinks everything so experiments run in test time.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Scale = 0.004 // wiki-vote ≈ 28 nodes; others ≤ 800
	cfg.Profiles = []string{"wiki-vote", "wiki-talk"}
	cfg.Queries = 2
	o := core.DefaultOptions()
	o.T = 4
	o.R = 30
	o.RPrime = 60
	cfg.Opts = o
	cfg.FMTSamples = 40
	return cfg
}

func TestTableRender(t *testing.T) {
	tab := NewTable("demo", "A", "BB")
	tab.Add("1", "2")
	tab.Add("longer", "x")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "== demo ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestTableRenderCSV(t *testing.T) {
	tab := NewTable("demo", "A", "B")
	tab.Add("1", "a,b") // comma must be quoted
	var buf bytes.Buffer
	if err := tab.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"a,b"`) {
		t.Fatalf("CSV quoting broken:\n%s", out)
	}
}

func TestFmtHelpers(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{500 * time.Microsecond, "500µs"},
		{42 * time.Millisecond, "42ms"},
		{1500 * time.Millisecond, "1.50s"},
		{90 * time.Second, "1m30s"},
	}
	for _, c := range cases {
		if got := FmtDuration(c.d); got != c.want {
			t.Errorf("FmtDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
	if got := FmtCount(1234567); got != "1,234,567" {
		t.Errorf("FmtCount = %q", got)
	}
	if got := FmtCount(-1000); got != "-1,000" {
		t.Errorf("FmtCount negative = %q", got)
	}
	if got := FmtCount(12); got != "12" {
		t.Errorf("FmtCount small = %q", got)
	}
}

func TestConfigNormalize(t *testing.T) {
	var cfg Config
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	if cfg.Scale != 1.0 || cfg.Queries == 0 || cfg.Opts.C == 0 {
		t.Fatalf("normalize left zeros: %+v", cfg)
	}
}

func TestDatasetsExperiment(t *testing.T) {
	tabs, err := RunDatasets(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 1 || len(tabs[0].Rows) != 2 {
		t.Fatalf("datasets table %+v", tabs)
	}
	// Paper column must show the real paper numbers regardless of scale.
	if tabs[0].Rows[0][1] != "7,100" {
		t.Fatalf("paper |V| cell = %q", tabs[0].Rows[0][1])
	}
}

func TestParamsExperiment(t *testing.T) {
	tabs, err := RunParams(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs[0].Rows) != 5 {
		t.Fatalf("params table has %d rows", len(tabs[0].Rows))
	}
}

func TestModelTables(t *testing.T) {
	for _, model := range []string{"broadcast", "rdd"} {
		tabs, err := RunModelTable(tinyConfig(), model)
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		if len(tabs[0].Rows) != 2 {
			t.Fatalf("%s table rows %d", model, len(tabs[0].Rows))
		}
		for _, row := range tabs[0].Rows {
			if row[1] == "OOM" {
				t.Fatalf("%s: unexpected OOM at tiny scale: %v", model, row)
			}
		}
	}
}

func TestCompareTableShape(t *testing.T) {
	cfg := tinyConfig()
	// Force the FMT gate to trip on the second dataset only: budget
	// covers wiki-vote (~28 nodes) but not wiki-talk (~96 nodes).
	cfg.FMTBudget = int64(cfg.FMTSamples) * int64(cfg.Opts.T) * 40 * 4
	tabs, err := RunCompareTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := tabs[0].Rows
	if len(rows) != 2 {
		t.Fatalf("compare rows %d", len(rows))
	}
	if rows[0][1] == "N/A" {
		t.Fatalf("FMT should fit wiki-vote: %v", rows[0])
	}
	if rows[1][1] != "N/A" {
		t.Fatalf("FMT should OOM on wiki-talk: %v", rows[1])
	}
	// LIN and CloudWalker columns always present: "err" is an engine
	// that failed to build or answer.
	for _, row := range rows {
		for c := 4; c <= 9; c++ {
			if row[c] == "N/A" || row[c] == "-" || row[c] == "err" {
				t.Fatalf("%s cell missing: %v", tabs[0].Header[c], row)
			}
		}
	}
}

func TestConvergenceFigure(t *testing.T) {
	cfg := tinyConfig()
	tabs, err := RunConvergence(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 3 {
		t.Fatalf("convergence returned %d tables", len(tabs))
	}
	// Jacobi residuals must be non-increasing overall (first vs last).
	sw := tabs[0].Rows
	first, err1 := strconv.ParseFloat(sw[0][1], 64)
	last, err2 := strconv.ParseFloat(sw[len(sw)-1][1], 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("unparsable residuals %v", sw)
	}
	if last > first {
		t.Fatalf("Jacobi residual grew: %g -> %g", first, last)
	}
}

func TestModelsFigure(t *testing.T) {
	cfg := tinyConfig()
	tabs, err := RunModels(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 {
		t.Fatalf("models returned %d tables", len(tabs))
	}
	// The memory-wall table must show broadcast OOM at the largest scale
	// while RDD still runs.
	wall := tabs[1].Rows
	lastRow := wall[len(wall)-1]
	if lastRow[3] != "OOM" {
		t.Fatalf("broadcast should hit the wall: %v", lastRow)
	}
	if lastRow[4] == "OOM" {
		t.Fatalf("rdd should survive the wall: %v", lastRow)
	}
}

func TestEffectivenessFigure(t *testing.T) {
	cfg := tinyConfig()
	cfg.Opts.RPrime = 400
	tabs, err := RunEffectiveness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := tabs[0].Rows
	if len(rows) != 2 {
		t.Fatalf("effectiveness rows %d", len(rows))
	}
	sim, err1 := strconv.ParseFloat(rows[0][1], 64)
	coc, err2 := strconv.ParseFloat(rows[1][1], 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("unparsable precisions %v", rows)
	}
	// The paper's motivating claim: SimRank beats co-citation.
	if sim <= coc {
		t.Fatalf("SimRank precision %g not above co-citation %g", sim, coc)
	}
	if sim < 0.5 {
		t.Fatalf("SimRank precision %g suspiciously low", sim)
	}
}

func TestAblationExperiment(t *testing.T) {
	cfg := tinyConfig()
	tabs, err := RunAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 4 {
		t.Fatalf("ablation returned %d tables", len(tabs))
	}
	if len(tabs[0].Rows) != 2 || len(tabs[1].Rows) != 2 || len(tabs[2].Rows) != 2 || len(tabs[3].Rows) != 5 {
		t.Fatalf("ablation table shapes: %d/%d/%d/%d rows",
			len(tabs[0].Rows), len(tabs[1].Rows), len(tabs[2].Rows), len(tabs[3].Rows))
	}
}

func TestQueryScalingExperimentSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("query scaling builds three indexes")
	}
	cfg := tinyConfig()
	cfg.Opts.R = 10
	cfg.Opts.RPrime = 100
	cfg.Queries = 2
	tabs, err := RunQueryScaling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs[0].Rows) != 3 {
		t.Fatalf("query scaling rows %d", len(tabs[0].Rows))
	}
}

func TestThroughputExperiment(t *testing.T) {
	cfg := tinyConfig()
	cfg.Opts.RPrime = 50
	tabs, err := RunThroughput(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := tabs[0].Rows
	if len(rows) != 4 {
		t.Fatalf("throughput rows %d", len(rows))
	}
	for _, row := range rows {
		qps, err := strconv.ParseFloat(row[1], 64)
		if err != nil || qps <= 0 {
			t.Fatalf("bad qps cell %v: %v", row, err)
		}
	}
}

func TestRegistry(t *testing.T) {
	names := ExperimentNames()
	if len(names) != 12 {
		t.Fatalf("experiment count %d, want 12", len(names))
	}
	var buf bytes.Buffer
	if err := Run("params", tinyConfig(), &buf, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "decay factor") {
		t.Fatalf("params output:\n%s", buf.String())
	}
	if err := Run("nope", tinyConfig(), &buf, false); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	buf.Reset()
	if err := Run("datasets", tinyConfig(), &buf, true); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "# Datasets") {
		t.Fatalf("CSV output:\n%s", buf.String())
	}
}
