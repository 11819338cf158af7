package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cloudwalker/internal/core"
	"cloudwalker/internal/gen"
	"cloudwalker/internal/oracle"
)

// Adaptive behavior is always opt-in via the ?epsilon= query parameter
// (or the /pairs body field). A generous
// epsilon on the tiny test budget (R' = 300) stops at the first
// checkpoint, so these tests exercise real early stops, not cap runs.
const easyEps = "0.2"

func TestPairAdaptiveEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	get := func(path string) (pr pairResponse) {
		oracle.Get(t, ts.Client(), ts.URL+path, http.StatusOK, &pr)
		return pr
	}

	first := get("/pair?i=10&j=11&epsilon=" + easyEps)
	if first.Cached {
		t.Fatal("first adaptive query reported cached")
	}
	if first.Epsilon != 0.2 {
		t.Fatalf("epsilon not echoed: %+v", first)
	}
	if first.Walkers <= 0 || first.HalfWidth < 0 {
		t.Fatalf("adaptive stop stats missing: %+v", first)
	}
	if first.Score < 0 || first.Score > 1 {
		t.Fatalf("score %g outside [0,1]", first.Score)
	}
	// Repeat: a hit with identical score AND identical stop stats.
	if hit := get("/pair?i=10&j=11&epsilon=" + easyEps); !hit.Cached || hit.Score != first.Score || hit.Walkers != first.Walkers {
		t.Fatalf("adaptive repeat: %+v, want hit matching %+v", hit, first)
	}
	// Symmetry holds for adaptive queries too.
	if rev := get("/pair?i=11&j=10&epsilon=" + easyEps); !rev.Cached || rev.Score != first.Score {
		t.Fatalf("reversed adaptive pair: %+v", rev)
	}
	// An explicit delta changes the key and the bound.
	if tight := get("/pair?i=10&j=11&epsilon=" + easyEps + "&delta=0.01"); tight.Cached {
		t.Fatal("different delta must not share the cache entry")
	}
}

func TestPairAdaptiveCacheKeySeparation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	get := func(path string) (pr pairResponse) {
		oracle.Get(t, ts.Client(), ts.URL+path, http.StatusOK, &pr)
		return pr
	}

	fixed := get("/pair?i=3&j=4")
	if fixed.Cached || fixed.Walkers != 0 || fixed.Epsilon != 0 {
		t.Fatalf("fixed query must carry no adaptive fields: %+v", fixed)
	}
	// Adaptive on the same pair: a different cache entry, so NOT a hit.
	if adaptive := get("/pair?i=3&j=4&epsilon=" + easyEps); adaptive.Cached {
		t.Fatal("adaptive query hit the fixed-budget cache entry")
	}
	// And back: the fixed entry is still there, unpolluted.
	if again := get("/pair?i=3&j=4"); !again.Cached || again.Score != fixed.Score || again.Walkers != 0 {
		t.Fatalf("fixed entry polluted by adaptive query: %+v", again)
	}
	// epsilon=0 is the explicit fixed-budget opt-out: same key as plain.
	if optOut := get("/pair?i=3&j=4&epsilon=0"); !optOut.Cached || optOut.Score != fixed.Score {
		t.Fatalf("epsilon=0 must share the fixed entry: %+v", optOut)
	}
}

func TestPairsAdaptiveBody(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const body = `{"pairs":[[20,21],[22,23]],"epsilon":0.2}`

	var batch pairsResponse
	oracle.Post(t, ts.Client(), ts.URL+"/pairs", body, http.StatusOK, &batch)
	if len(batch.Scores) != 2 {
		t.Fatalf("scores = %v", batch.Scores)
	}
	// Each batch score must equal the point endpoint's adaptive answer —
	// same key space, so the point queries are now hits.
	for k, p := range [][2]int{{20, 21}, {22, 23}} {
		var pt pairResponse
		oracle.Get(t, ts.Client(), fmt.Sprintf("%s/pair?i=%d&j=%d&epsilon=%s", ts.URL, p[0], p[1], easyEps), http.StatusOK, &pt)
		if !pt.Cached || pt.Score != batch.Scores[k] {
			t.Fatalf("pair %v: point %+v vs batch score %g", p, pt, batch.Scores[k])
		}
	}
	// The repeat batch is all hits.
	var again pairsResponse
	oracle.Post(t, ts.Client(), ts.URL+"/pairs", body, http.StatusOK, &again)
	if again.Hits != 2 {
		t.Fatalf("repeat batch hits = %d, want 2", again.Hits)
	}
	// Bad adaptive params in the body fail the whole batch.
	oracle.Post(t, ts.Client(), ts.URL+"/pairs", `{"pairs":[[1,2]],"epsilon":0.2,"delta":5}`, http.StatusBadRequest, nil)
}

func TestPairAdaptiveBadParams(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, q := range []string{
		"epsilon=abc",
		"epsilon=-0.1",
		"epsilon=1",
		"epsilon=1.5",
		"epsilon=NaN",
		"epsilon=0.05&delta=0",
		"epsilon=0.05&delta=1",
		"epsilon=0.05&delta=-0.5",
		"epsilon=0.05&delta=junk",
	} {
		oracle.Get(t, ts.Client(), ts.URL+"/pair?i=1&j=2&"+q, http.StatusBadRequest, nil)
	}
	// delta without epsilon is harmless on a fixed-budget index.
	oracle.Get(t, ts.Client(), ts.URL+"/pair?i=1&j=2&delta=0.05", http.StatusOK, nil)
}

// TestSourceAdaptiveEndpoint: /source has no adaptive path. An explicit
// epsilon > 0 is refused with the rule's words, epsilon=0 is the plain
// fixed-budget query (one cache entry: a miss, then a hit), and the body
// carries no adaptive or estimator fields.
func TestSourceAdaptiveEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var eb ErrorBody
	oracle.Get(t, ts.Client(), ts.URL+"/source?node=5&k=10&epsilon="+easyEps, http.StatusBadRequest, &eb)
	if !strings.Contains(eb.Error, "/source evaluates a deterministic series") {
		t.Fatalf("adaptive /source refusal %q does not give the reason", eb.Error)
	}
	resp, err := ts.Client().Get(ts.URL + "/source?node=5&k=10")
	if err != nil {
		t.Fatal(err)
	}
	raw := readAll(t, resp)
	if !strings.Contains(raw, `"cached":false`) {
		t.Fatalf("first /source answer is not a miss: %s", raw)
	}
	for _, field := range []string{`"mode"`, `"epsilon"`, `"half_width"`, `"walkers"`, `"stopped"`} {
		if strings.Contains(raw, field) {
			t.Fatalf("/source body carries %s: %s", field, raw)
		}
	}
	var optOut sourceResponse
	oracle.Get(t, ts.Client(), ts.URL+"/source?node=5&k=10&epsilon=0", http.StatusOK, &optOut)
	if !optOut.Cached {
		t.Fatal("epsilon=0 must share the plain /source entry")
	}
}

func TestAdaptiveCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	oracle.Get(t, ts.Client(), ts.URL+"/pair?i=30&j=31&epsilon="+easyEps, http.StatusOK, nil)
	// Cache hits must not double-count savings.
	oracle.Get(t, ts.Client(), ts.URL+"/pair?i=30&j=31&epsilon="+easyEps, http.StatusOK, nil)

	var st Stats
	oracle.Get(t, ts.Client(), ts.URL+"/stats", http.StatusOK, &st)
	if st.WalkersSaved == 0 {
		t.Fatal("walkers_saved stayed zero after early-stopping queries")
	}
	if st.Stopped == 0 {
		t.Fatal("adaptive_stopped stayed zero after early-stopping queries")
	}
	saved := st.WalkersSaved

	oracle.Get(t, ts.Client(), ts.URL+"/pair?i=30&j=31&epsilon="+easyEps, http.StatusOK, nil)
	oracle.Get(t, ts.Client(), ts.URL+"/stats", http.StatusOK, &st)
	if st.WalkersSaved != saved {
		t.Fatalf("cache hit changed walkers_saved: %d -> %d", saved, st.WalkersSaved)
	}

	// The Prometheus page exposes both counters.
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"cloudwalker_walkers_saved_total", "cloudwalker_adaptive_stopped_total"} {
		if !bytes.Contains(body, []byte(want)) {
			t.Fatalf("/metrics missing %s:\n%s", want, body)
		}
	}
}

// TestV2IndexServesFixedBudget: an index file from the release that
// stored an adaptive default (header v2, here ε = 0.2 and δ = 0.05) still
// loads, and neither SinglePair nor a plain /pair on it samples
// adaptively: a server over it answers every plan as the same index
// loaded from v1 does.
func TestV2IndexServesFixedBudget(t *testing.T) {
	g, err := gen.RMAT(200, 1600, gen.DefaultRMAT, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.T = 5
	opts.R = 40
	opts.RPrime = 300
	idx, _, err := core.BuildIndex(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	fixedQ, err := core.NewQuerier(g, idx)
	if err != nil {
		t.Fatal(err)
	}
	var v1 bytes.Buffer
	if err := idx.Save(&v1); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.ReadIndex(bytes.NewReader(indexV2(v1.Bytes(), 0.2, 0.05)))
	if err != nil {
		t.Fatalf("v2 index does not load: %v", err)
	}
	q, err := core.NewQuerier(g, loaded)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fixedQ.SinglePair(10, 11)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := q.SinglePair(10, 11); err != nil || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("SinglePair on the v2 index = %v (%v), want the fixed-budget %v", got, err, want)
	}
	srv, err := New(q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	oracle.Check(t, ts.Client(), ts.URL, oracle.Ref{Q: fixedQ}, oracle.Sample(fixedQ, 3, 3))
}

// indexV2 rewrites a v1 index file as the v2 layout: version word 2 and
// the adaptive (ε, δ) words after the seven option scalars.
func indexV2(v1 []byte, eps, delta float64) []byte {
	const optsEnd = 9 * 8 // magic, version, seven options
	out := append([]byte(nil), v1[:optsEnd]...)
	binary.LittleEndian.PutUint64(out[8:], 2)
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(eps))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(delta))
	return append(out, v1[optsEnd:]...)
}
