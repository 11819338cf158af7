package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"

	"cloudwalker/internal/core"
)

// TestPairsOnePath: whatever arm a batch resolves to — fixed budget,
// adaptive, linearized — it is the /pair path run once per
// distinct canonical pair. Scores equal the corresponding /pair answers
// (and, on the fixed Monte Carlo arm, Querier.SinglePairs) bit for bit;
// duplicate and reversed pairs execute once; and cache_hits always means
// the request positions whose pair was in the cache at lookup.
func TestPairsOnePath(t *testing.T) {
	arms := []struct {
		name, body, query string // the batch's body fields and /pair's query suffix
		keySuffix         string
	}{
		{name: "fixed"},
		{name: "adaptive", body: `,"epsilon":0.2`, query: "&epsilon=0.2", keySuffix: "/e0.2/d0.05"},
		{name: "lin", body: `,"backend":"lin"`, query: "&backend=lin", keySuffix: "/b=lin"},
	}
	pairs := [][2]int{{3, 4}, {5, 6}, {6, 5}, {5, 6}, {9, 9}, {4, 3}}
	body := func(fields string) string {
		var b strings.Builder
		b.WriteString(`{"pairs":[`)
		for n, p := range pairs {
			if n > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "[%d,%d]", p[0], p[1])
		}
		return b.String() + "]" + fields + "}"
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			srv, ts := newTestServer(t, Config{Lin: linEngine(t)})
			var mu sync.Mutex
			var computed []string
			srv.testComputeHook = func(_ context.Context, key string) {
				mu.Lock()
				computed = append(computed, key)
				mu.Unlock()
			}
			// Seed one pair through /pair: the batch must find it.
			var seed pairResponse
			getJSON(t, ts, "/pair?i=3&j=4"+arm.query, http.StatusOK, &seed)
			computed = nil

			var got pairsResponse
			postJSON(t, ts, "/pairs", body(arm.body), http.StatusOK, &got)
			// (3,4) was cached and sits at two positions; (5,6) ×3 and
			// (9,9) were not.
			if got.Hits != 2 {
				t.Fatalf("cache_hits = %d, want 2 (the two positions of the seeded pair)", got.Hits)
			}
			sort.Strings(computed)
			want := []string{"g0/p/5/6" + arm.keySuffix, "g0/p/9/9" + arm.keySuffix}
			if len(computed) != 2 || computed[0] != want[0] || computed[1] != want[1] {
				t.Fatalf("batch computed %v, want each distinct missed pair once: %v", computed, want)
			}
			for n, p := range pairs {
				var pt pairResponse
				getJSON(t, ts, fmt.Sprintf("/pair?i=%d&j=%d%s", p[0], p[1], arm.query), http.StatusOK, &pt)
				if !pt.Cached || pt.Score != got.Scores[n] {
					t.Fatalf("pair %v: /pair cached=%v score=%v, batch score %v", p, pt.Cached, pt.Score, got.Scores[n])
				}
			}
			if arm.name == "fixed" {
				canon := make([][2]int, len(pairs))
				for n, p := range pairs {
					canon[n][0], canon[n][1] = core.CanonicalPair(p[0], p[1])
				}
				direct, err := querier(t).SinglePairs(canon)
				if err != nil {
					t.Fatal(err)
				}
				for n := range direct {
					if direct[n] != got.Scores[n] {
						t.Fatalf("pair %v: batch %v != Querier.SinglePairs %v", pairs[n], got.Scores[n], direct[n])
					}
				}
			}
			// The repeat finds every pair: a hit at every position.
			var again pairsResponse
			postJSON(t, ts, "/pairs", body(arm.body), http.StatusOK, &again)
			if again.Hits != len(pairs) {
				t.Fatalf("repeat batch cache_hits = %d, want %d", again.Hits, len(pairs))
			}
			for n := range pairs {
				if again.Scores[n] != got.Scores[n] {
					t.Fatalf("repeat batch score %d changed: %v -> %v", n, got.Scores[n], again.Scores[n])
				}
			}
		})
	}
}

// TestPairsConcurrentBatches: overlapping batches and point queries race
// through the shared flights and the cache (the fan-out writes jobs from
// worker goroutines); every answer must still be the deterministic one.
func TestPairsConcurrentBatches(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInFlight: -1, CacheSize: 8})
	var want pairsResponse
	const body = `{"pairs":[[1,2],[3,4],[5,6],[7,8],[9,10],[11,12],[13,14],[15,16],[2,1],[17,18]]}`
	postJSON(t, ts, "/pairs", body, http.StatusOK, &want)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 5; n++ {
				resp, err := ts.Client().Post(ts.URL+"/pairs", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var got pairsResponse
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil || len(got.Scores) != len(want.Scores) {
					t.Errorf("batch: %v, %d scores", err, len(got.Scores))
					return
				}
				for k := range got.Scores {
					if got.Scores[k] != want.Scores[k] {
						t.Errorf("score %d = %v, want %v", k, got.Scores[k], want.Scores[k])
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestOversizedBodiesRejected: POST /pairs and POST /edges stop reading
// at their byte limit and answer 413 — a multi-megabyte body is never
// decoded (a decoded one would be a 400 for exceeding MaxBatch, or an
// applied update).
func TestOversizedBodiesRejected(t *testing.T) {
	dyn, srv, ts := newDynamicServer(t, Config{})
	huge := func(field string, n int) *bytes.Buffer {
		var b bytes.Buffer
		b.WriteString(`{"` + field + `":[`)
		for b.Len() < n {
			b.WriteString("[0,1],")
		}
		b.WriteString("[0,1]]}")
		return &b
	}
	before := dyn.Gen()
	for path, size := range map[string]int{"/pairs": 4 << 20, "/edges": maxEdgesBody + 1<<20} {
		field := map[string]string{"/pairs": "pairs", "/edges": "insert"}[path]
		resp, err := ts.Client().Post(ts.URL+path, "application/json", huge(field, size))
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s with %d bytes: status %d body %s, want 413", path, size, resp.StatusCode, body)
		}
	}
	if dyn.Gen() != before || srv.computes.Value() != 0 {
		t.Fatal("an oversized body was applied or computed")
	}
	// A full-size legal batch still fits under the /pairs limit.
	full := make([]string, DefaultMaxBatch)
	for n := range full {
		full[n] = "[   19, 18   ]"
	}
	postJSON(t, ts, "/pairs", `{"pairs":[`+strings.Join(full, " ,\n")+`]}`, http.StatusOK, nil)
}
