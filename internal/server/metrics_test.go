package server

import (
	"cloudwalker/internal/oracle"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"cloudwalker/internal/metrics/promtext"
)

// TestMetricsEndpoint scrapes /metrics after known traffic and checks the
// page parses as Prometheus text format 0.0.4 AND agrees with /stats —
// both surfaces read the same registry, so the counts must match exactly.
func TestMetricsEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{InitialGen: 5})

	// 1 miss + 2 hits on the same pair = 3 requests, 1 computation.
	for i := 0; i < 3; i++ {
		oracle.Get(t, ts.Client(), ts.URL+"/pair?i=1&j=2", http.StatusOK, nil)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	page := readAll(t, resp)
	if err := promtext.ValidateText(strings.NewReader(page)); err != nil {
		t.Fatalf("ValidateText: %v\n%s", err, page)
	}

	st := srv.StatsSnapshot()
	for _, want := range []string{
		`cloudwalker_requests_total{endpoint="/pair"} 3`,
		fmt.Sprintf("cloudwalker_computations_total %d", st.Computations),
		fmt.Sprintf("cloudwalker_cache_hits_total %d", st.Cache.Hits),
		fmt.Sprintf("cloudwalker_cache_misses_total %d", st.Cache.Misses),
		"cloudwalker_snapshot_generation 5",
		`cloudwalker_request_duration_seconds_count{endpoint="/pair"} 3`,
		`cloudwalker_request_duration_seconds_bucket{endpoint="/pair",le="+Inf"} 3`,
		"cloudwalker_shed_total 0",
		"cloudwalker_in_flight 0",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q\n%s", want, page)
		}
	}
	if st.Computations != 1 {
		t.Fatalf("computations = %d, want 1 (2 of 3 requests were cache hits)", st.Computations)
	}
}

// TestMetricsBypassesAdmissionGate proves /metrics answers while the
// query path is saturated — the whole point of scraping is seeing INTO an
// overloaded server.
func TestMetricsBypassesAdmissionGate(t *testing.T) {
	block := make(chan struct{})
	release := make(chan struct{})
	srv, ts := newTestServer(t, Config{MaxInFlight: 1})
	srv.testComputeHook = func(context.Context, string) {
		close(block)
		<-release
	}
	defer close(release)

	go ts.Client().Get(ts.URL + "/pair?i=1&j=2") // occupies the only slot
	<-block

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics under saturation: status %d", resp.StatusCode)
	}
	if err := promtext.ValidateText(strings.NewReader(page)); err != nil {
		t.Fatalf("ValidateText: %v", err)
	}
	if !strings.Contains(page, "cloudwalker_in_flight 1") {
		t.Fatalf("in_flight gauge did not show the stuck request:\n%s", page)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
