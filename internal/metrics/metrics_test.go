package metrics

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"cloudwalker/internal/metrics/promtext"
)

func TestCounterRenderAndValue(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("cw_requests_total", "Total requests.")
	labeled := r.NewCounter("cw_hits_total", "Hits.", Label{"endpoint", "/pair"})
	c.Add(41)
	c.Inc()
	labeled.Inc()
	if c.Value() != 42 {
		t.Fatalf("Value() = %d, want 42", c.Value())
	}
	page := r.Render()
	for _, want := range []string{
		"# HELP cw_requests_total Total requests.",
		"# TYPE cw_requests_total counter",
		"cw_requests_total 42",
		`cw_hits_total{endpoint="/pair"} 1`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("page missing %q:\n%s", want, page)
		}
	}
	if err := promtext.ValidateText(strings.NewReader(page)); err != nil {
		t.Fatalf("ValidateText: %v", err)
	}
}

func TestGaugeFuncAndCollector(t *testing.T) {
	r := NewRegistry()
	v := 3.5
	r.NewGaugeFunc("cw_inflight", "In-flight requests.", func() float64 { return v })
	r.NewGaugeCollector("cw_shard_up", "Per-shard liveness.", func() []Sample {
		return []Sample{
			{Labels: []Label{{"shard", "a:1"}}, Value: 1},
			{Labels: []Label{{"shard", "b:2"}}, Value: 0},
		}
	})
	page := r.Render()
	for _, want := range []string{
		"cw_inflight 3.5",
		`cw_shard_up{shard="a:1"} 1`,
		`cw_shard_up{shard="b:2"} 0`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("page missing %q:\n%s", want, page)
		}
	}
	if err := promtext.ValidateText(strings.NewReader(page)); err != nil {
		t.Fatalf("ValidateText: %v", err)
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("cw_latency_seconds", "Request latency.", []float64{0.001, 0.01, 0.1}, Label{"endpoint", "/pair"})
	for _, v := range []float64{0.0005, 0.0005, 0.005, 0.05, 7} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count() = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.0005+0.0005+0.005+0.05+7; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Sum() = %g, want %g", got, want)
	}
	page := r.Render()
	for _, want := range []string{
		`cw_latency_seconds_bucket{endpoint="/pair",le="0.001"} 2`,
		`cw_latency_seconds_bucket{endpoint="/pair",le="0.01"} 3`,
		`cw_latency_seconds_bucket{endpoint="/pair",le="0.1"} 4`,
		`cw_latency_seconds_bucket{endpoint="/pair",le="+Inf"} 5`,
		`cw_latency_seconds_count{endpoint="/pair"} 5`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("page missing %q:\n%s", want, page)
		}
	}
	if err := promtext.ValidateText(strings.NewReader(page)); err != nil {
		t.Fatalf("ValidateText: %v", err)
	}
}

// A boundary value lands in the bucket whose upper bound it equals
// (le is <=, per the exposition format).
func TestHistogramBoundaryInclusive(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("cw_h", "h", []float64{1, 2})
	h.Observe(1)
	page := r.Render()
	if !strings.Contains(page, `cw_h_bucket{le="1"} 1`) {
		t.Fatalf("observation at bound 1 not counted in le=\"1\":\n%s", page)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("cw_h", "h", nil)
	const goroutines, per = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(g%4) * 0.001)
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != goroutines*per {
		t.Fatalf("Count() = %d, want %d", h.Count(), goroutines*per)
	}
	// Sum is an exact integer multiple of 0.001 sums; CAS accumulation
	// must not lose updates.
	want := float64(per) * (0 + 1 + 2 + 3) * 2 * 0.001
	if math.Abs(h.Sum()-want) > 1e-9 {
		t.Fatalf("Sum() = %g, want %g", h.Sum(), want)
	}
}

func TestHandlerServesTextFormat(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("cw_x_total", "x").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if err := promtext.ValidateText(resp.Body); err != nil {
		t.Fatalf("ValidateText: %v", err)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("cw_esc_total", "esc", Label{"path", `a"b\c`}).Inc()
	page := r.Render()
	if !strings.Contains(page, `cw_esc_total{path="a\"b\\c"} 1`) {
		t.Fatalf("escaping wrong:\n%s", page)
	}
	if err := promtext.ValidateText(strings.NewReader(page)); err != nil {
		t.Fatalf("ValidateText: %v", err)
	}
}

func TestValidateTextRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"no TYPE":            "cw_x 1\n",
		"bad value":          "# TYPE cw_x gauge\ncw_x banana\n",
		"negative counter":   "# TYPE cw_x counter\ncw_x -1\n",
		"unterminated label": "# TYPE cw_x gauge\ncw_x{a=\"b 1\n",
		"non-cumulative histogram": "# TYPE cw_h histogram\n" +
			"cw_h_bucket{le=\"1\"} 5\ncw_h_bucket{le=\"2\"} 3\ncw_h_bucket{le=\"+Inf\"} 5\ncw_h_sum 1\ncw_h_count 5\n",
		"missing +Inf": "# TYPE cw_h histogram\n" +
			"cw_h_bucket{le=\"1\"} 5\ncw_h_sum 1\ncw_h_count 5\n",
		"inf != count": "# TYPE cw_h histogram\n" +
			"cw_h_bucket{le=\"+Inf\"} 4\ncw_h_sum 1\ncw_h_count 5\n",
		"empty page": "",
	}
	for name, page := range cases {
		if err := promtext.ValidateText(strings.NewReader(page)); err == nil {
			t.Errorf("%s: ValidateText accepted invalid page:\n%s", name, page)
		}
	}
}
