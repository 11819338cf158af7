package dist

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"

	"cloudwalker/internal/sparse"
)

// HTTPEngine is a QueryEngine over a real transport: it answers MCSP and
// MCSS queries by calling a live cloudwalkerd daemon — or a fleet router
// fronting N of them — over HTTP/JSON. It is the bridge between the
// simulated-cluster engines (same interface, in-process) and an actual
// deployment: an agreement test can swap in an HTTPEngine and replay the
// exact same query workload against real processes.
//
// Caveat: the serving tier caps /source at its maxTopK (1000) results, so
// SingleSource returns the 1000 highest-scoring entries of s(i, ·), not
// the full sparse vector, on sources whose support is larger. Scores that
// do come back are bit-identical to the local estimator's (the daemon
// runs the same deterministic kernels), so top-k agreement is exact.
const httpEngineMaxK = 1000

// httpEngineBodyLimit bounds how much of a daemon response the engine
// buffers (a /source body at k=1000 is a few tens of KB).
const httpEngineBodyLimit = 16 << 20

// HTTPEngine answers queries through a live daemon or fleet router.
type HTTPEngine struct {
	base   string
	client *http.Client

	mu     sync.Mutex
	closed bool
}

// NewHTTPEngine builds a query engine over the daemon or router at base
// ("host:port" or "http://host:port"). A nil client uses
// http.DefaultClient.
func NewHTTPEngine(base string, client *http.Client) (*HTTPEngine, error) {
	base = strings.TrimRight(strings.TrimSpace(base), "/")
	if base == "" {
		return nil, fmt.Errorf("dist: http engine needs a base address")
	}
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	if client == nil {
		client = http.DefaultClient
	}
	return &HTTPEngine{base: base, client: client}, nil
}

// Name identifies the backend.
func (e *HTTPEngine) Name() string { return "http" }

// Close marks the engine closed; subsequent queries fail.
func (e *HTTPEngine) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
}

func (e *HTTPEngine) get(path string, v any) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return fmt.Errorf("dist: http engine is closed")
	}
	resp, err := e.client.Get(e.base + path)
	if err != nil {
		return fmt.Errorf("dist: http engine: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, httpEngineBodyLimit))
	if err != nil {
		return fmt.Errorf("dist: http engine: reading %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		var eb struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
			return fmt.Errorf("dist: http engine: %s: %s (status %d)", path, eb.Error, resp.StatusCode)
		}
		return fmt.Errorf("dist: http engine: %s: status %d", path, resp.StatusCode)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("dist: http engine: decoding %s: %w", path, err)
	}
	return nil
}

// SinglePair answers s(i, j) via GET /pair. The serving tier
// canonicalizes the pair order, so over HTTP s(i,j) and s(j,i) are the
// same bit-identical estimate (a local Querier seeds its RNG from the
// order given).
func (e *HTTPEngine) SinglePair(i, j int) (float64, error) {
	var pr struct {
		Score float64 `json:"score"`
	}
	if err := e.get(fmt.Sprintf("/pair?i=%d&j=%d", i, j), &pr); err != nil {
		return 0, err
	}
	if !(pr.Score >= 0 && pr.Score <= 1) {
		return 0, fmt.Errorf("dist: http engine: /pair score %v outside [0,1]", pr.Score)
	}
	return pr.Score, nil
}

// SingleSource answers s(i, ·) via GET /source at the serving tier's
// maximum k, rebuilding the sparse vector from the top-k list. The daemon
// excludes the source itself from its top-k results, so the self entry is
// re-pinned to 1 exactly as the local estimator pins it.
func (e *HTTPEngine) SingleSource(i int) (*sparse.Vector, error) {
	var sr struct {
		Results []struct {
			Node  int32   `json:"node"`
			Score float64 `json:"score"`
		} `json:"results"`
	}
	if err := e.get(fmt.Sprintf("/source?node=%d&k=%d", i, httpEngineMaxK), &sr); err != nil {
		return nil, err
	}
	v := &sparse.Vector{
		Idx: make([]int32, 0, len(sr.Results)+1),
		Val: make([]float64, 0, len(sr.Results)+1),
	}
	sort.Slice(sr.Results, func(a, b int) bool { return sr.Results[a].Node < sr.Results[b].Node })
	selfDone := false
	for _, nb := range sr.Results {
		if !(nb.Score >= 0 && nb.Score <= 1) {
			return nil, fmt.Errorf("dist: http engine: /source score %v outside [0,1]", nb.Score)
		}
		if !selfDone && nb.Node >= int32(i) {
			if nb.Node == int32(i) {
				return nil, fmt.Errorf("dist: http engine: /source returned the source node %d in its own top-k", i)
			}
			v.Idx = append(v.Idx, int32(i))
			v.Val = append(v.Val, 1)
			selfDone = true
		}
		v.Idx = append(v.Idx, nb.Node)
		v.Val = append(v.Val, nb.Score)
	}
	if !selfDone {
		v.Idx = append(v.Idx, int32(i))
		v.Val = append(v.Val, 1)
	}
	return v, nil
}
