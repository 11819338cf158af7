package fleet

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"time"

	"cloudwalker/internal/par"
	"cloudwalker/internal/server"
)

// Background health probing. Requests already mark a shard down when an
// attempt fails (see Router.do); the prober is what marks it back UP
// after a restart or a burst of failures, and keeps the /healthz fleet
// view fresh even when no traffic is flowing. Without it a restarted
// shard answers none of the keys it owns: traffic reaches a down shard
// only after every live replica failed.

func (rt *Router) probeLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	rt.probeOnce() // prime the fleet view before the first tick
	for {
		select {
		case <-rt.stopc:
			return
		case <-t.C:
			rt.probeOnce()
		}
	}
}

// probeOnce probes every shard's /healthz concurrently, updating up/gen.
func (rt *Router) probeOnce() {
	_, states := rt.membership()
	par.Chunks(len(states), len(states), func(i, _, _ int) { rt.probeShard(states[i]) })
}

func (rt *Router) probeShard(sh *shardState) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.AttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, sh.base+"/healthz", nil)
	if err != nil {
		sh.up.Store(false)
		return
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		sh.up.Store(false)
		return
	}
	// A body-read error is a FAILED probe: the connection died mid-response
	// (shard crashed after writing headers, network cut), which is exactly
	// the condition probing exists to detect. Ignoring it would mark a
	// half-dead shard up on the strength of a status line alone.
	_, rerr := io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if rerr != nil || resp.StatusCode != http.StatusOK {
		sh.up.Store(false)
		return
	}
	// Record the generation BEFORE flipping the shard up, and through the
	// max-keeping observeGen: this probe's parsed generation may already be
	// stale relative to a request that raced us, and up=true must never
	// publish a generation rollback (see shardState.observeGen).
	if g := resp.Header.Get(server.GenHeader); g != "" {
		if v, perr := strconv.ParseUint(g, 10, 64); perr == nil {
			sh.observeGen(v)
		}
	}
	sh.up.Store(true)
	// If a rolling refresh skipped this shard while it was unreachable,
	// catch it up now that it answers (async — the probe loop must not
	// block on an index rebuild; refresh is idempotent, so racing a
	// concurrent client-initiated roll is harmless). On failure the shard
	// goes back on the pending list for the next probe that finds it alive.
	if rt.takePendingRefresh(sh.addr) {
		go func() {
			if _, err := rt.refreshShard(context.Background(), sh, 1); err != nil {
				rt.markPendingRefresh(sh.addr)
			}
		}()
	}
}
