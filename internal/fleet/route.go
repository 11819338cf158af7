package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"cloudwalker/internal/core"
	"cloudwalker/internal/metrics"
	"cloudwalker/internal/server"
)

// The router's spine, the fleet-side twin of the shard's parse → execute
// path: every routed query endpoint is one row of a route table, and one
// handler runs every row — the shard's own request prologue
// (server.Admit: method, deadline, body limit), the row's parse into a
// query, then a relay of the reply of the one shard that owns it (see
// askReplicas). Every query attempt goes through one loop, askOrder.

// route is one row of the routed query surface.
type route struct {
	path, method string
	maxBody      int64 // 0: the endpoint takes no body
	// parse reads the request once into the query to send.
	parse func(r *http.Request, body []byte) (*query, error)
}

// query is a routed request after its row parsed it.
type query struct {
	key          string // ring key: whose replicas answer
	method, path string // path carries the query string every attempt sends
	body         []byte
	// validate judges a shard's 200 body (nil accepts any).
	validate func(*shardReply) error
}

// serve runs one route row, timed into the endpoint's latency histogram
// (fleet-side latency: every shard attempt, backoff and failover the
// router performed on the client's behalf).
func (rt *Router) serve(rw route) http.Handler {
	duration := rt.reg.NewHistogram("cloudwalker_fleet_request_duration_seconds",
		"Latency of routed query requests, including failover attempts.", nil,
		metrics.Label{Key: "endpoint", Value: rw.path})
	admit := server.Admit(rw.method, rw.maxBody, rt.deadlineExceeded, func(w http.ResponseWriter, r *http.Request, body []byte) {
		rt.requests.Inc()
		q, err := rw.parse(r, body)
		if err != nil {
			server.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		q.method, q.body = rw.method, body
		rep, err := rt.askReplicas(r.Context(), q)
		if err != nil {
			rt.relayError(w, err)
			return
		}
		if rep.status == http.StatusOK && rep.hasGen {
			raiseMax(&rt.served, rep.gen)
		}
		passthrough(w, rep)
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		admit(w, r)
		duration.Observe(time.Since(start).Seconds())
	})
}

// The parse steps forward the client's query string verbatim (the ring
// key is all the router reads from it), so backend=, epsilon=, timeout=
// and future parameters reach the shard untouched — and refuse malformed
// input with the shard's own helpers, so with the shard's words.

func (rt *Router) parsePair(r *http.Request, _ []byte) (*query, error) {
	q := r.URL.Query()
	i, err := server.ParseNode(q, "i")
	if err != nil {
		return nil, err
	}
	j, err := server.ParseNode(q, "j")
	if err != nil {
		return nil, err
	}
	return &query{key: PairKey(core.CanonicalPair(i, j)), path: "/pair?" + r.URL.RawQuery, validate: valid(decodePairBody)}, nil
}

// parsePairs sends the whole batch to ONE shard: a shard pins a single
// snapshot for the batch, so the response can never mix generations.
func (rt *Router) parsePairs(_ *http.Request, body []byte) (*query, error) {
	var req struct {
		Pairs [][2]int `json:"pairs"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("decoding body: %v", err)
	}
	n := len(req.Pairs)
	if n == 0 {
		return nil, errors.New("empty pair list")
	}
	return &query{key: PairKey(core.CanonicalPair(req.Pairs[0][0], req.Pairs[0][1])), path: "/pairs",
		validate: func(rep *shardReply) error { _, err := decodePairsBody(rep.body, n); return err }}, nil
}

// parseSource owner-routes /source by its node. allow_partial, which
// clients of the old partial answers still send, is stripped: every
// answer is whole.
func (rt *Router) parseSource(r *http.Request, _ []byte) (*query, error) {
	q := r.URL.Query()
	node, err := server.ParseNode(q, "node")
	if err != nil {
		return nil, err
	}
	if _, err := server.ParseTopK(q, server.DefaultTopK); err != nil {
		return nil, err
	}
	q.Del("allow_partial")
	return &query{key: NodeKey(node), path: "/source?" + q.Encode(), validate: valid(decodeSourceBody)}, nil
}

// valid adapts a shard-body decoder into a query validator.
func valid[T any](decode func([]byte) (T, error)) func(*shardReply) error {
	return func(rep *shardReply) error { _, err := decode(rep.body); return err }
}

// healthyFirst orders shards for a request: those up first, the rest
// after, each group in its given order. A shard is down from its last
// failed query attempt or probe until a valid reply or a live probe, a
// view that may lag, so down shards stay on as a last resort rather
// than being dropped.
func healthyFirst(shards []*shardState) []*shardState {
	order := make([]*shardState, 0, len(shards))
	var back []*shardState
	for _, sh := range shards {
		if sh.up.Load() {
			order = append(order, sh)
		} else {
			back = append(back, sh)
		}
	}
	return append(order, back...)
}

// replicaOrder returns the shards to try for key: the ring's failover
// order, healthy shards first.
func (rt *Router) replicaOrder(key string) []*shardState {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	succ := rt.ring.Successors(key)
	order := make([]*shardState, len(succ))
	for i, a := range succ {
		order[i] = rt.shards[a]
	}
	return healthyFirst(order)
}

// askReplicas runs a query down its key's failover order, hedged against
// a second replica chain when hedging is on (GETs only).
func (rt *Router) askReplicas(ctx context.Context, q *query) (*shardReply, error) {
	order := rt.replicaOrder(q.key)
	if d := rt.cfg.HedgeDelay; d > 0 && q.method == http.MethodGet && len(order) > 1 {
		return rt.askHedged(ctx, order, q, d)
	}
	return rt.askOrder(ctx, order, q)
}

var (
	// errBudgetExhausted marks a failover cut short by an empty retry
	// token bucket (the brownout-amplification guard, see budget.go).
	errBudgetExhausted = errors.New("fleet: retry budget exhausted")
	// errStale marks a 200 below the router's generation floor.
	errStale = errors.New("fleet: stale generation")
)

// askOrder is the one loop that sends query traffic to shards — for a
// query, and for each chain of a hedged one. It walks order for up to
// MaxPasses passes (backing off linearly between them) until a shard
// produces an authoritative reply: a 200 at or above the generation
// floor that validates, or any 4xx but 429 (a client error is the same
// on every replica; 429 means that shard is shedding, so the next
// absorbs the spill). Transport errors, 5xx, 429 and bodies that fail
// validation are infrastructure failures and move on; so does a 200
// below the floor (stale: that shard has not rolled to the generation
// the router already relayed). Every infrastructure failure marks the
// shard down but a refusal from a live shard (shardReply.declined).
//
// The charge rule, the whole of it: a request's first attempt is free;
// an attempt after an infrastructure failure spends a retry-budget token
// (none left stops the loop); an attempt after a stale generation is
// free (the shard answered healthily, MaxPasses bounds the loop, and a
// routine rolling refresh must not starve the brownout guard); and a
// hedge spends one token, for its first attempt (askHedged), and only
// while the bucket holds more than half its size, so hedges never take
// the lower half from failovers. An answer that came from a charged
// attempt counts as a failover.
func (rt *Router) askOrder(ctx context.Context, order []*shardState, q *query) (*shardReply, error) {
	var lastErr error
	retry := false // the next attempt follows an infrastructure failure
	for pass := 0; pass < rt.cfg.MaxPasses; pass++ {
		if pass > 0 {
			select {
			case <-time.After(time.Duration(pass) * rt.cfg.RetryBackoff):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		for _, sh := range order {
			if retry && !rt.charge(false) {
				return nil, fmt.Errorf("%w (last error: %v)", errBudgetExhausted, lastErr)
			}
			rep, err := rt.do(ctx, sh, q.method, q.path, q.body, rt.cfg.AttemptTimeout)
			switch {
			case err != nil && ctx.Err() != nil:
				return nil, err // the request is over, not the shard
			case err != nil:
				rt.shardErrors.Inc()
			case rep.status >= 500 || rep.status == http.StatusTooManyRequests:
				rt.shardErrors.Inc()
				err = fmt.Errorf("fleet: shard %s: status %d", sh.addr, rep.status)
				if !rep.declined {
					sh.up.Store(false)
				}
			case rep.status == http.StatusOK && rep.hasGen && rep.gen < rt.served.Load():
				rt.genRetries.Inc()
				lastErr = fmt.Errorf("%w: shard %s at gen %d, below the served floor", errStale, sh.addr, rep.gen)
				retry = false
				continue
			case rep.status == http.StatusOK && q.validate != nil:
				if err = q.validate(rep); err != nil {
					rt.badBodies.Inc()
					sh.up.Store(false)
				}
			}
			if err != nil {
				lastErr, retry = err, true
				continue
			}
			if retry {
				rt.failovers.Inc()
			}
			rt.budget.success()
			return rep, nil
		}
	}
	return nil, lastErr
}

// charge spends a retry-budget token for an attempt beyond a request's
// free first one, counting a refusal; hedge marks a hedge's first attempt.
func (rt *Router) charge(hedge bool) bool {
	if rt.budget.spend(hedge) {
		return true
	}
	rt.budgetExhausted.Inc()
	return false
}

// shardReply is one shard's buffered response.
type shardReply struct {
	shard     *shardState
	status    int
	gen       uint64
	hasGen    bool
	shardName string
	backend   string
	body      []byte
	// declined marks a refusal from a live shard, which demotes nothing:
	// a 429 (shedding), a 503 with Retry-After (a lin request between a
	// swap and its re-solve) or a 504 (the request's own deadline ran
	// out, forwarded rounded down to the millisecond, so the shard can
	// see it pass before the router does).
	declined bool
}

// do performs one attempt against one shard with the per-attempt timeout,
// buffering the body. A transport error and an oversized body mark the
// shard down (a valid reply or the prober marks it back up) — unless the
// PARENT context was cancelled, in which case the failure says nothing
// about the shard (the client gave up, or a hedge race was decided) and
// the attempt is neutral. A 5xx marks nothing here: askOrder demotes on
// a query's, while a maintenance POST's 503 (a shard without -dynamic
// refusing /edges) comes from a shard that serves queries fine. When the effective context
// carries a deadline, it is forwarded in DeadlineHeader so the shard
// stops working the moment the client's budget runs out.
func (rt *Router) do(ctx context.Context, sh *shardState, method, pathAndQuery string, body []byte, timeout time.Duration) (*shardReply, error) {
	parent := ctx
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, sh.base+pathAndQuery, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if dl, ok := ctx.Deadline(); ok {
		req.Header.Set(server.DeadlineHeader, server.FormatDeadline(dl))
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		if parent.Err() != nil {
			return nil, fmt.Errorf("fleet: shard %s: %w", sh.addr, parent.Err())
		}
		sh.up.Store(false)
		return nil, fmt.Errorf("fleet: shard %s: %w", sh.addr, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxShardBody+1))
	if err != nil {
		if parent.Err() != nil {
			return nil, fmt.Errorf("fleet: shard %s: reading body: %w", sh.addr, parent.Err())
		}
		sh.up.Store(false)
		return nil, fmt.Errorf("fleet: shard %s: reading body: %w", sh.addr, err)
	}
	if len(b) > maxShardBody {
		sh.up.Store(false)
		return nil, fmt.Errorf("fleet: shard %s: response exceeds %d bytes", sh.addr, maxShardBody)
	}
	rep := &shardReply{shard: sh, status: resp.StatusCode, body: b, shardName: resp.Header.Get(server.ShardHeader),
		backend: resp.Header.Get(server.BackendHeader)}
	if g := resp.Header.Get(server.GenHeader); g != "" {
		if v, perr := strconv.ParseUint(g, 10, 64); perr == nil {
			rep.gen, rep.hasGen = v, true
		}
	}
	st := resp.StatusCode
	rep.declined = st == http.StatusTooManyRequests || st == http.StatusGatewayTimeout ||
		st == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != ""
	if st < 500 && st != http.StatusTooManyRequests {
		// Record the generation BEFORE flipping the shard up: a reader
		// that sees up=true must not read a generation older than the
		// response that proved the shard alive.
		if rep.hasGen {
			sh.observeGen(rep.gen)
		}
		sh.up.Store(true)
	}
	return rep, nil
}

// passthrough relays a shard reply byte-for-byte (keeping answers
// bit-identical to the shard that computed them), restamping the
// generation and shard headers.
func passthrough(w http.ResponseWriter, rep *shardReply) {
	w.Header().Set("Content-Type", "application/json")
	if rep.hasGen {
		w.Header().Set(server.GenHeader, strconv.FormatUint(rep.gen, 10))
	}
	if rep.shardName != "" {
		w.Header().Set(server.ShardHeader, rep.shardName)
	} else {
		w.Header().Set(server.ShardHeader, rep.shard.addr)
	}
	if rep.backend != "" {
		w.Header().Set(server.BackendHeader, rep.backend)
	}
	w.WriteHeader(rep.status)
	w.Write(rep.body)
}

// relayError maps an exhausted failover to a client response: 504 when
// the request's own deadline ran out, 503 with Retry-After when the last
// replica was below the generation floor (a rolling refresh has not
// reached it yet), a gateway error naming the last failure otherwise.
func (rt *Router) relayError(w http.ResponseWriter, err error) {
	if err == nil {
		err = errors.New("fleet: no shard produced a response")
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		rt.deadlineExceeded.Inc()
		server.WriteError(w, http.StatusGatewayTimeout, "%v", err)
	case errors.Is(err, errStale):
		w.Header().Set("Retry-After", "1")
		server.WriteError(w, http.StatusServiceUnavailable, "%v; retry", err)
	default:
		server.WriteError(w, http.StatusBadGateway, "%v", err)
	}
}
