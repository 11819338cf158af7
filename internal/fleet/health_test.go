package fleet

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cloudwalker/internal/metrics/promtext"
	"cloudwalker/internal/oracle"
	"cloudwalker/internal/server"
)

func TestObserveGenNeverRegresses(t *testing.T) {
	sh := &shardState{addr: "x:1", base: "http://x:1"}
	sh.observeGen(5)
	sh.observeGen(3) // a stale observation must not roll the view back
	if got := sh.gen.Load(); got != 5 {
		t.Fatalf("gen = %d after stale observe, want 5", got)
	}
	sh.observeGen(9)
	if got := sh.gen.Load(); got != 9 {
		t.Fatalf("gen = %d, want 9", got)
	}
}

// TestProbeGenConcurrentMax is the race the old probe code lost: probes
// and requests observe generations out of order, and a plain Store let a
// slow probe overwrite a newer generation AFTER marking the shard up.
// Every response here carries a unique increasing generation; whatever
// interleaving happens, the final view must be the maximum handed out.
// Run under -race this also pins the memory discipline of the probe path.
func TestProbeGenConcurrentMax(t *testing.T) {
	var genCtr atomic.Uint64
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(server.GenHeader, strconv.FormatUint(genCtr.Add(1), 10))
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer shard.Close()

	rt, _ := newFleet(t, shard.URL)
	addr := normalizeAddr(shard.URL)
	sh := rt.shards[addr]

	const probers, per = 8, 25
	var wg sync.WaitGroup
	for p := 0; p < probers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rt.probeShard(sh)
			}
		}()
	}
	wg.Wait()
	if got, want := sh.gen.Load(), genCtr.Load(); got != want {
		t.Fatalf("final gen = %d, want max handed out %d", got, want)
	}
	if !sh.up.Load() {
		t.Fatal("shard down after successful probes")
	}
}

// TestProbeBodyReadErrorMarksDown: a shard that dies mid-response (status
// line arrived, body didn't) is NOT healthy. The old probe discarded the
// io.Copy error and marked the shard up on the strength of the headers.
func TestProbeBodyReadErrorMarksDown(t *testing.T) {
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(server.GenHeader, "3")
		w.Header().Set("Content-Length", "4096")
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler) // cut the connection before the body
	}))
	defer shard.Close()

	rt, _ := newFleet(t, shard.URL)
	sh := rt.shards[normalizeAddr(shard.URL)]
	sh.up.Store(true)
	rt.probeShard(sh)
	if sh.up.Load() {
		t.Fatal("probe marked a shard up despite the body read failing")
	}
	if got := sh.gen.Load(); got != 0 {
		t.Fatalf("failed probe recorded gen %d", got)
	}
}

// TestProbeNon200MarksDown pins the pre-existing behavior around the fix.
func TestProbeNon200MarksDown(t *testing.T) {
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "warming up", http.StatusServiceUnavailable)
	}))
	defer shard.Close()
	rt, _ := newFleet(t, shard.URL)
	sh := rt.shards[normalizeAddr(shard.URL)]
	rt.probeShard(sh)
	if sh.up.Load() {
		t.Fatal("probe marked a 503 shard up")
	}
}

// TestFleetMetricsEndpoint scrapes the router's /metrics after routed
// traffic and validates the page parses as Prometheus text format with
// the per-shard collectors materialized.
func TestFleetMetricsEndpoint(t *testing.T) {
	s1 := newShard(t, "s1")
	s2 := newShard(t, "s2")
	rt, ts := newFleet(t, s1.URL, s2.URL)

	for i := 0; i < 4; i++ {
		oracle.Get(t, ts.Client(), ts.URL+"/pair?i=1&j="+strconv.Itoa(2+i), http.StatusOK, nil)
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
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	page := string(raw)
	if err := promtext.ValidateText(strings.NewReader(page)); err != nil {
		t.Fatalf("ValidateText: %v\n%s", err, page)
	}
	st := rt.StatsSnapshot()
	for _, want := range []string{
		"cloudwalker_fleet_requests_total 4",
		"cloudwalker_fleet_shards 2",
		`cloudwalker_fleet_shard_up{shard="` + normalizeAddr(s1.URL) + `"} 1`,
		`cloudwalker_fleet_shard_up{shard="` + normalizeAddr(s2.URL) + `"} 1`,
		`cloudwalker_fleet_shard_generation{shard="` + normalizeAddr(s1.URL) + `"} 0`,
		`cloudwalker_fleet_request_duration_seconds_count{endpoint="/pair"} 4`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q\n%s", want, page)
		}
	}
	if st.Requests != 4 {
		t.Fatalf("stats requests = %d, want 4 (same registry as /metrics)", st.Requests)
	}
}
