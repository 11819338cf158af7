package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"cloudwalker/internal/core"
	"cloudwalker/internal/server"
	"cloudwalker/internal/sparse"
)

// clients is both the closed-loop client count and the connection cap:
// the reference box has two cores, and one process generates all load.
const clients = 2

// expectedGen is the generation every answer must carry: the benchmark
// serves static graphs, which start — and stay — at generation 0.
const expectedGen = "0"

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
		},
	}
}

// answer is the part of a response the checks compare: a pair score, a
// batch's scores, or a top-k list.
type answer struct {
	score   float64
	scores  []float64
	results []core.Neighbor
	cached  bool // served from the result cache (every pair of a batch)
}

// wireBody decodes the fields of /pair, /pairs and /source responses the
// checks need; one shape serves all three.
type wireBody struct {
	Score   *float64  `json:"score"`
	Scores  []float64 `json:"scores"`
	Hits    int       `json:"cache_hits"`
	Cached  bool      `json:"cached"`
	Results []struct {
		Node  int32   `json:"node"`
		Score float64 `json:"score"`
	} `json:"results"`
}

func inUnit(s float64) bool { return s >= 0 && s <= 1 }

// parseAnswer validates one response against its request: status 200, the
// expected generation, and a well-formed body with every score in [0,1].
func parseAnswer(r request, status int, gen string, body []byte) (answer, error) {
	if status != http.StatusOK {
		return answer{}, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	if gen != expectedGen {
		return answer{}, fmt.Errorf("%s = %q, want %q", server.GenHeader, gen, expectedGen)
	}
	var wb wireBody
	if err := json.Unmarshal(body, &wb); err != nil {
		return answer{}, fmt.Errorf("decoding body: %w", err)
	}
	switch r.kind {
	case kindPair, kindPairEps:
		if wb.Score == nil || !inUnit(*wb.Score) {
			return answer{}, fmt.Errorf("pair score missing or outside [0,1]: %s", body)
		}
		return answer{score: *wb.Score, cached: wb.Cached}, nil
	case kindPairs:
		if len(wb.Scores) != len(r.batch) {
			return answer{}, fmt.Errorf("%d scores for %d pairs", len(wb.Scores), len(r.batch))
		}
		for _, s := range wb.Scores {
			if !inUnit(s) {
				return answer{}, fmt.Errorf("batch score %v outside [0,1]", s)
			}
		}
		return answer{scores: wb.Scores, cached: wb.Hits == len(r.batch)}, nil
	default:
		if len(wb.Results) > r.k {
			return answer{}, fmt.Errorf("%d results for k=%d", len(wb.Results), r.k)
		}
		out := make([]core.Neighbor, len(wb.Results))
		for n, nb := range wb.Results {
			if !inUnit(nb.Score) || (n > 0 && nb.Score > wb.Results[n-1].Score) {
				return answer{}, fmt.Errorf("top-k entry %d out of range or out of order", n)
			}
			out[n] = core.Neighbor{Node: nb.Node, Score: nb.Score}
		}
		return answer{results: out, cached: wb.Cached}, nil
	}
}

// equal compares two answers bit for bit (JSON round-trips float64
// exactly, and every estimator is deterministic in its query).
func (a answer) equal(b answer) bool {
	if a.score != b.score || len(a.scores) != len(b.scores) || len(a.results) != len(b.results) {
		return false
	}
	for i := range a.scores {
		if a.scores[i] != b.scores[i] {
			return false
		}
	}
	for i := range a.results {
		if a.results[i] != b.results[i] {
			return false
		}
	}
	return true
}

// overHTTP sends the request (with an optional extra query suffix such as
// a scatter partition) to base and validates the response.
func overHTTP(hc *http.Client, base string, r request, suffix string) (answer, error) {
	path, body := r.path()
	var resp *http.Response
	var err error
	if body == "" {
		resp, err = hc.Get(base + path + suffix)
	} else {
		resp, err = hc.Post(base+path, "application/json", strings.NewReader(body))
	}
	if err != nil {
		return answer{}, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return answer{}, fmt.Errorf("reading body: %w", err)
	}
	return parseAnswer(r, resp.StatusCode, resp.Header.Get(server.GenHeader), raw)
}

// inProcess calls the handler directly on a response recorder: the whole
// serving tier without a socket.
func inProcess(h http.Handler, r request) (answer, error) {
	path, body := r.path()
	method, rd := http.MethodGet, io.Reader(nil)
	if body != "" {
		method, rd = http.MethodPost, strings.NewReader(body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	return parseAnswer(r, rec.Code, rec.Header().Get(server.GenHeader), rec.Body.Bytes())
}

// directCost is what a direct estimator call spent: the estimator call
// and the top-k selection, and for adaptive pairs the walkers run against
// the budget.
type directCost struct {
	estimate, topk  time.Duration
	walkers, budget int
}

// direct answers the request by calling the estimator the serving tier
// would call, with the arguments it would pass.
func (e *env) direct(r request) (answer, directCost, error) {
	var cost directCost
	ctx := context.Background()
	switch r.kind {
	case kindPair, kindPairEps:
		ci, cj := core.CanonicalPair(r.i, r.j)
		t0 := time.Now()
		var score float64
		var err error
		if r.lin {
			score, err = e.lin.SinglePair(ci, cj)
		} else {
			eps := 0.0
			if r.kind == kindPairEps {
				eps = adaptiveEps
			}
			var pe core.PairEstimate
			pe, err = e.q.SinglePairAdaptiveCtx(ctx, ci, cj, eps, adaptiveDelta)
			score, cost.walkers, cost.budget = pe.Score, pe.Walkers, pe.Budget
		}
		cost.estimate = time.Since(t0)
		return answer{score: score}, cost, err
	case kindPairs:
		canon := make([][2]int, len(r.batch))
		for n, p := range r.batch {
			canon[n][0], canon[n][1] = core.CanonicalPair(p[0], p[1])
		}
		t0 := time.Now()
		scores, err := e.q.SinglePairs(canon)
		cost.estimate = time.Since(t0)
		return answer{scores: scores}, cost, err
	default:
		t0 := time.Now()
		var v *sparse.Vector
		var err error
		if r.lin {
			v, err = e.lin.SingleSource(r.i)
		} else {
			v, _, err = e.q.SingleSourceAdaptiveCtx(ctx, r.i, 0, adaptiveDelta)
		}
		t1 := time.Now()
		if err != nil {
			return answer{}, cost, err
		}
		top := core.TopKNeighbors(v, r.i, r.k)
		cost.estimate, cost.topk = t1.Sub(t0), time.Since(t1)
		return answer{results: top}, cost, nil
	}
}
