package e2etest

// Fleet-level backend selection: the backend= query parameter must ride
// through the router untouched, the shard's
// X-Cloudwalker-Backend header must round-trip back to the client, and
// a shard WITHOUT a linearized engine must answer backend=lin with an
// authoritative 400 that the router relays verbatim instead of
// retrying it around the fleet.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cloudwalker/internal/fleet"
)

func TestFleetBackendForwarding(t *testing.T) {
	// Two pools over the same artifacts: one serving Monte Carlo only,
	// one with the linearized engine built at startup (-lin).
	mkShards := func(lin bool) []string {
		n := 2
		addrs := make([]string, n)
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("shard-%s%c", map[bool]string{true: "lin-", false: "mc-"}[lin], 'a'+i)
			args := shardArgs(name, false)
			if lin {
				args = append(args, "-lin")
			}
			addrs[i] = startDaemon(t, name, args...).addr
		}
		return addrs
	}
	mcAddrs := mkShards(false)
	linAddrs := mkShards(true)

	// The daemon's -router mode.
	linRouter := startDaemon(t, "router-lin", "-router", "-shards", strings.Join(linAddrs, ","))
	mcRouter := startDaemon(t, "router-mc", "-router", "-shards", strings.Join(mcAddrs, ","))
	checkBackendForwarding(t, linRouter.base(), mcRouter.base())

	// An in-process router under either Mode value (Mode is deprecated
	// and ignored, but the benchmark still builds a Partitioned router):
	// both forward exactly as the daemon does.
	for _, mode := range []struct {
		name string
		mode fleet.Mode
	}{{"replicated", fleet.Replicated}, {"partitioned", fleet.Partitioned}} {
		t.Run(mode.name, func(t *testing.T) {
			checkBackendForwarding(t,
				startRouter(t, mode.mode, linAddrs), startRouter(t, mode.mode, mcAddrs))
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

// checkBackendForwarding runs the backend= checks against a router over
// -lin shards (linBase) and one over Monte Carlo-only shards (mcBase).
func checkBackendForwarding(t *testing.T, linBase, mcBase string) {
	t.Helper()
	waitHealthy(t, linBase, 2)
	waitHealthy(t, mcBase, 2)

	// backend=mc and backend=lin both round-trip through the router, and
	// the answering engine comes back in the header.
	for _, backend := range []string{"mc", "lin"} {
		var pr pairResp
		st, hdr := getInto(linBase, "/pair?i=3&j=4&backend="+backend, &pr)
		if st != http.StatusOK {
			t.Fatalf("backend=%s: status %d, want 200", backend, st)
		}
		if got := hdr.Get("X-Cloudwalker-Backend"); got != backend {
			t.Fatalf("backend=%s: X-Cloudwalker-Backend = %q", backend, got)
		}
		if !(pr.Score >= 0 && pr.Score <= 1) {
			t.Fatalf("backend=%s: score %v out of range", backend, pr.Score)
		}
	}

	// /source carries the parameter through too.
	var sr sourceResp
	getJSON(t, linBase, "/source?node=5&k=6&backend=lin", http.StatusOK, &sr)
	if len(sr.Results) == 0 {
		t.Fatal("lin /source via router returned no results")
	}

	// A fleet with no linearized engine must refuse backend=lin with the
	// shard's own 400 — an authoritative client error, relayed verbatim,
	// never retried into a 502.
	var eb struct {
		Error string `json:"error"`
	}
	st, _ := getInto(mcBase, "/pair?i=3&j=4&backend=lin", &eb)
	if st != http.StatusBadRequest {
		t.Fatalf("lin without engine: status %d, want 400", st)
	}
	if !strings.Contains(eb.Error, "lin") {
		t.Fatalf("lin without engine: error %q does not name the backend", eb.Error)
	}
	st, _ = getInto(mcBase, "/source?node=5&k=6&backend=lin", &eb)
	if st != http.StatusBadRequest {
		t.Fatalf("lin without engine /source: status %d, want 400", st)
	}
}
