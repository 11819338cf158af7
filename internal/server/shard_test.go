package server

import (
	"cmp"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"cloudwalker/internal/core"
	"cloudwalker/internal/oracle"
)

// TestNodePart: the partition function behind part=i/N is total,
// stable, and reasonably balanced (a skewed partition would make one
// part's top-k the straggler of every split answer).
func TestNodePart(t *testing.T) {
	if NodePart(42, 1) != 0 || NodePart(42, 0) != 0 {
		t.Fatal("parts <= 1 must map everything to partition 0")
	}
	for _, parts := range []int{2, 3, 5, 8} {
		counts := make([]int, parts)
		for n := int32(0); n < 10000; n++ {
			p := NodePart(n, parts)
			if p < 0 || p >= parts {
				t.Fatalf("NodePart(%d, %d) = %d out of range", n, parts, p)
			}
			counts[p]++
		}
		mean := 10000.0 / float64(parts)
		for p, c := range counts {
			if r := float64(c) / mean; r < 0.85 || r > 1.15 {
				t.Errorf("parts=%d: partition %d holds %d nodes = %.2fx the uniform share", parts, p, c, r)
			}
		}
	}
}

// TestSourcePartMergeBitIdentical: merging the per-partition top-k lists
// of /source?part=i/N reproduces the unrestricted /source answer
// bit-for-bit: part= splits an answer without changing it.
func TestSourcePartMergeBitIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const node, k, parts = 7, 15, 3

	var whole sourceResponse
	oracle.Get(t, ts.Client(), fmt.Sprintf("%s/source?node=%d&k=%d", ts.URL, node, k), http.StatusOK, &whole)
	var merged []core.Neighbor
	for p := 0; p < parts; p++ {
		var partial sourceResponse
		oracle.Get(t, ts.Client(), fmt.Sprintf("%s/source?node=%d&k=%d&part=%d/%d", ts.URL, node, k, p, parts), http.StatusOK, &partial)
		if partial.Part == "" || partial.Gen != whole.Gen {
			t.Fatalf("partial %d: part=%q gen=%d, want labeled part at gen %d", p, partial.Part, partial.Gen, whole.Gen)
		}
		for _, nb := range partial.Results {
			if NodePart(nb.Node, parts) != p {
				t.Fatalf("partial %d returned node %d of partition %d", p, nb.Node, NodePart(nb.Node, parts))
			}
		}
		merged = append(merged, partial.Results...)
	}
	// The router's merge: score descending, node ascending on ties —
	// the same total order core.TopKNeighbors selects under.
	slices.SortStableFunc(merged, func(a, b core.Neighbor) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return cmp.Compare(a.Node, b.Node)
	})
	merged = merged[:min(len(merged), k)]
	if !slices.Equal(merged, whole.Results) {
		t.Fatalf("merged %+v != whole %+v", merged, whole.Results)
	}
}

// TestPairsResponseCarriesGen: a batched response reports the single
// snapshot generation all its scores came from.
func TestPairsResponseCarriesGen(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var pr pairsResponse
	oracle.Post(t, ts.Client(), ts.URL+"/pairs", `{"pairs":[[1,2],[3,4]]}`, http.StatusOK, &pr)
	if len(pr.Scores) != 2 || pr.Gen != 0 {
		t.Fatalf("pairs response %+v, want 2 scores at gen 0", pr)
	}
}

// TestSourcePartRejectsMalformed: bad part parameters are 400s, never
// silently unfiltered answers (a fleet merge would double-count).
func TestSourcePartRejectsMalformed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, part := range []string{"x", "1", "2/2", "-1/2", "1/0", "1/9999", "a/b"} {
		var e struct {
			Error string `json:"error"`
		}
		oracle.Get(t, ts.Client(), ts.URL+"/source?node=1&part="+part, http.StatusBadRequest, &e)
		if e.Error == "" {
			t.Fatalf("part=%q: empty error body", part)
		}
	}
}

// TestGenAndShardHeaders: query responses carry the generation header,
// and a named shard stamps every response with its name.
func TestGenAndShardHeaders(t *testing.T) {
	srv, err := New(querier(t), Config{ShardName: "shard-a"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	for _, path := range []string{"/pair?i=1&j=2", "/source?node=3&k=5", "/healthz"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get(GenHeader); got != "0" {
			t.Fatalf("GET %s: %s = %q, want \"0\" (static server)", path, GenHeader, got)
		}
		if got := resp.Header.Get(ShardHeader); got != "shard-a" {
			t.Fatalf("GET %s: %s = %q, want \"shard-a\"", path, ShardHeader, got)
		}
	}
}

// TestSourcePartCacheKeysDistinct: a partition-restricted answer must
// never be served from the whole-space cache entry or vice versa.
func TestSourcePartCacheKeysDistinct(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var whole, part sourceResponse
	oracle.Get(t, ts.Client(), ts.URL+"/source?node=9&k=5", http.StatusOK, &whole)
	oracle.Get(t, ts.Client(), ts.URL+"/source?node=9&k=5&part=0/2", http.StatusOK, &part)
	if part.Cached {
		t.Fatal("partitioned request was served from the whole-space cache entry")
	}
	for _, nb := range part.Results {
		if NodePart(nb.Node, 2) != 0 {
			t.Fatalf("partitioned result leaked node %d from the other partition", nb.Node)
		}
	}
	oracle.Get(t, ts.Client(), ts.URL+"/source?node=9&k=5&part=0/2", http.StatusOK, &part)
	if !part.Cached {
		t.Fatal("repeated partitioned request missed the cache")
	}
}
