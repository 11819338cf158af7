package e2etest

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cloudwalker"
	"cloudwalker/internal/fleet"
	"cloudwalker/internal/oracle"
)

// TestFleetBackendForwarding: backend= rides through a router untouched,
// and the shard's X-Cloudwalker-Backend header comes back with the
// answer. Two pools serve the same artifacts. Shards with the linearized
// engine (-lin, solved exactly) answer every plan of both backends as the
// fixture's querier and a from-scratch exact engine do; Monte Carlo-only
// shards answer the mc plans the same way and refuse backend=lin with the
// shard's own 400, which a router relays instead of retrying it around
// the fleet into a 502. Each pool is asked through the daemon's -router
// mode and, in the subtests, through an in-process router under either
// Mode value (Mode is deprecated and ignored, but the benchmark still
// builds a Partitioned router).
func TestFleetBackendForwarding(t *testing.T) {
	mkShards := func(lin bool) []string {
		addrs := make([]string, 2)
		for i := range addrs {
			name := fmt.Sprintf("shard-%s%c", map[bool]string{true: "lin-", false: "mc-"}[lin], 'a'+i)
			args := shardArgs(name, false)
			if lin {
				args = append(args, "-lin", "-lin-prune", "0")
			}
			addrs[i] = startDaemon(t, name, args...).addr
		}
		return addrs
	}
	linAddrs, mcAddrs := mkShards(true), mkShards(false)
	opts := cloudwalker.DefaultLinOptions()
	opts.C, opts.T = fixture.Index().Opts.C, fixture.Index().Opts.T
	lin, err := cloudwalker.BuildLinEngine(fixture.Graph(), opts)
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, linRouter, mcRouter string) {
		t.Helper()
		waitHealthy(t, linRouter, 2)
		waitHealthy(t, mcRouter, 2)
		oracle.Check(t, http.DefaultClient, linRouter, oracle.Ref{Q: fixture, Lin: lin}, oracle.Sample(fixture, 4, 4))
		oracle.Check(t, http.DefaultClient, mcRouter, oracle.Ref{Q: fixture}, oracle.Sample(fixture, 5, 4))
	}
	check(t, startDaemon(t, "router-lin", "-router", "-shards", strings.Join(linAddrs, ",")).base(),
		startDaemon(t, "router-mc", "-router", "-shards", strings.Join(mcAddrs, ",")).base())
	for _, mode := range []fleet.Mode{fleet.Replicated, fleet.Partitioned} {
		t.Run([]string{"replicated", "partitioned"}[mode], func(t *testing.T) {
			check(t, startRouter(t, mode, linAddrs), startRouter(t, mode, mcAddrs))
		})
	}
}

// startRouter serves an in-process fleet router over addrs and returns
// its base URL.
func startRouter(t *testing.T, mode fleet.Mode, addrs []string) string {
	t.Helper()
	rt, err := fleet.New(fleet.Config{Shards: addrs, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}
