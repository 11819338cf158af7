package fleet

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"cloudwalker/internal/server"
)

// Partitioned-mode scatter-gather for /source.
//
// Every shard holds the full graph and index, so any shard can compute
// any partition of a single-source answer: the router asks N shards for
// /source?part=i/N (each filters the deterministic full score vector to
// its partition of the RESULT space before top-k selection), then merges
// the partial top-k lists with the same total order core.TopKNeighbors
// selects under. Because the global top-k is a subset of the union of
// partition top-ks, the merged answer is bit-identical to a single-node
// one — pinned by server.TestSourcePartMergeBitIdentical and the fleet
// e2e suite. Each partition is one query through askOrder, so it fails
// over and spends the retry budget exactly like an owner-routed request.
//
// Generation coordination: a scatter must never mix graph snapshots. All
// partials have to report one generation; on a mismatch (a rolling
// refresh is in flight) the router targets the MAXIMUM generation seen
// and re-fetches the outlier partitions from any shard already at the
// target — any shard can compute any part, so the newest shards cover
// for the laggards. Bounded retries, then 503 so the client retries
// rather than receiving a torn answer.
//
// Degraded partial answers: with allow_partial=1 the client accepts an
// answer missing up to MaxPartialLoss partitions when those partitions
// stay unreachable after budgeted retries. The surviving partials still
// generation-coordinate (a partial answer may be incomplete, never
// torn), the response says "degraded":true and lists the missing
// partitions, and PartialHeader flags it for middleboxes. Authoritative
// client errors (4xx) still relay verbatim — a partial answer only
// papers over infrastructure loss, never over a bad request.

// PartialHeader marks a degraded /source response assembled from
// surviving partitions; its value is the number of partitions missing.
const PartialHeader = "X-Cloudwalker-Partial"

// partResult is the outcome of fetching one partition: its decoded body,
// or an authoritative non-200 reply to relay, or the last error.
type partResult struct {
	sb      *sourceBody
	rep     *shardReply
	err     error
	maxSeen uint64 // highest generation observed while trying, even on failure
}

// scatterSource answers a partitioned /source for node; q is the client's
// query (minus allow_partial), forwarded to every partition.
func (rt *Router) scatterSource(w http.ResponseWriter, ctx context.Context, states []*shardState, q url.Values, node int, allowPartial bool) {
	rt.scatters.Inc()
	n := len(states)
	paths := make([]string, n)
	for p := range paths {
		q.Set("part", fmt.Sprintf("%d/%d", p, n))
		paths[p] = "/source?" + q.Encode()
	}

	// fetch asks for the listed partitions concurrently, partition p
	// preferring shard p (one partition per shard) and failing over around
	// the fleet. want, when set, makes any other generation stale.
	fetch := func(parts []int, want *uint64) []partResult {
		out := make([]partResult, len(parts))
		var wg sync.WaitGroup
		for i, p := range parts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res := &out[i]
				order := make([]*shardState, n)
				for off := range order {
					order[off] = states[(p+off)%n]
				}
				rep, err := rt.askOrder(ctx, healthyFirst(order), &query{method: http.MethodGet, path: paths[p],
					validate: func(rep *shardReply) error {
						sb, err := decodeSourceBody(rep.body)
						if err != nil {
							return err
						}
						res.maxSeen = max(res.maxSeen, sb.Gen)
						if want != nil && sb.Gen != *want {
							return fmt.Errorf("%w: shard %s at gen %d, want %d", errStale, rep.shard.addr, sb.Gen, *want)
						}
						res.sb = sb
						return nil
					}})
				if res.err = err; err == nil && rep.status != http.StatusOK {
					res.rep = rep
				}
			}()
		}
		wg.Wait()
		return out
	}

	partials := make([]*sourceBody, n)
	// dropped tracks partitions abandoned to keep a degraded answer
	// moving. lose settles a partition that produced no answer: dropped
	// when losing one more still fits the partial-loss budget (never the
	// whole answer, never an authoritative 4xx, never without opt-in),
	// else relayed — and then the scatter is over (lose reports false).
	var dropped []int
	lose := func(p int, res partResult) bool {
		if res.rep == nil && allowPartial && len(dropped) < rt.cfg.MaxPartialLoss && len(dropped)+1 < n {
			dropped = append(dropped, p)
			partials[p] = nil
			return true
		}
		if res.rep != nil {
			passthrough(w, res.rep)
		} else {
			rt.relayError(w, res.err)
		}
		return false
	}

	all := make([]int, n)
	for p := range all {
		all[p] = p
	}
	for p, res := range fetch(all, nil) {
		if res.sb == nil && !lose(p, res) {
			return
		}
		partials[p] = res.sb
	}

	// Generation coordination: converge every surviving partial onto the
	// maximum generation seen so far. maxSeen from failed attempts also
	// raises the target, so a shard swapping forward mid-loop pulls the
	// whole scatter forward with it.
	for iter := 0; ; iter++ {
		target := uint64(0)
		for _, sb := range partials {
			if sb != nil {
				target = max(target, sb.Gen)
			}
		}
		var outliers []int
		for p, sb := range partials {
			if sb != nil && sb.Gen != target {
				outliers = append(outliers, p)
			}
		}
		if len(outliers) == 0 {
			break
		}
		if iter >= genPasses {
			writeError(w, http.StatusServiceUnavailable,
				"fleet generations diverged during a rolling refresh (target gen %d, %d partitions behind after %d passes); retry",
				target, len(outliers), genPasses)
			return
		}
		results := fetch(outliers, &target)
		raised := false // a shard moved past target: keep the old partial, re-target next pass
		for _, res := range results {
			raised = raised || res.maxSeen > target
		}
		for i, res := range results {
			switch p := outliers[i]; {
			case res.sb != nil:
				partials[p] = res.sb
			case !raised && !lose(p, res):
				return
			}
		}
		if raised {
			// Let laggards catch up before re-targeting the higher gen.
			select {
			case <-time.After(rt.cfg.RetryBackoff):
			case <-ctx.Done():
				writeError(w, http.StatusServiceUnavailable, "request cancelled during generation coordination")
				return
			}
		}
	}

	var first *sourceBody // lose never drops every partition
	merged := []neighborWire{}
	for _, sb := range partials {
		if sb == nil {
			continue
		}
		if first == nil {
			first = sb
		}
		merged = append(merged, sb.Results...)
	}
	// Score descending, ties toward the lower node id: core.TopKNeighbors's
	// selection order, which makes the merge bit-identical to one node.
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Score != merged[j].Score {
			return merged[i].Score > merged[j].Score
		}
		return merged[i].Node < merged[j].Node
	})
	resp := sourceBody{Node: node, K: first.K, Gen: first.Gen, Results: merged[:min(len(merged), first.K)]}
	if len(dropped) > 0 {
		resp.Degraded = true
		sort.Ints(dropped)
		for _, p := range dropped {
			resp.Missing = append(resp.Missing, fmt.Sprintf("%d/%d", p, n))
		}
		w.Header().Set(PartialHeader, strconv.Itoa(len(dropped)))
		rt.partialResponses.Inc()
	}
	w.Header().Set(server.GenHeader, strconv.FormatUint(resp.Gen, 10))
	writeJSON(w, resp)
}
