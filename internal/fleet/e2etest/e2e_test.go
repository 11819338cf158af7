package e2etest

import (
	"fmt"
	"net/http"
	"slices"
	"testing"

	"cloudwalker/internal/oracle"
)

// TestFleetBitIdenticalToSingleNode: one standalone daemon, and a 3-shard fleet
// behind a router, serving the same artifacts, each answer every plan
// the oracle asks bit for bit as the fixture's querier does. The fleet
// is an operational choice, never a semantic one.
func TestFleetBitIdenticalToSingleNode(t *testing.T) {
	single := startDaemon(t, "single", "-graph", graphPath, "-index", indexPath)
	router, _ := startFleet(t, 3, false)
	oracle.Check(t, http.DefaultClient, single.base(), oracle.Ref{Q: fixture}, oracle.Sample(fixture, 1, 4))
	oracle.Check(t, http.DefaultClient, router.base(), oracle.Ref{Q: fixture}, oracle.Sample(fixture, 1, 4))
}

// TestShardKillMidTrafficZeroClientErrors: kill -9 one shard of three
// while queries are flowing — every client request must still succeed
// (failover absorbs the crash) and equal the fixture's answers, and
// after a restart on the same port the fleet heals to full strength and
// answers them still.
func TestShardKillMidTrafficZeroClientErrors(t *testing.T) {
	router, shards := startFleet(t, 3, false)

	query := func(i int) {
		t.Helper()
		oracle.Get(t, http.DefaultClient, router.base()+fmt.Sprintf("/pair?i=%d&j=%d", i%120, (i*7+1)%120), http.StatusOK, nil)
		if i%10 == 0 {
			oracle.Get(t, http.DefaultClient, router.base()+fmt.Sprintf("/source?node=%d&k=10", i%120), http.StatusOK, nil)
		}
	}
	for i := 0; i < 30; i++ {
		query(i)
	}
	shards[1].Kill()
	// oracle.Get fails the test on ANY non-200, so this loop IS the
	// zero-client-visible-errors assertion.
	for i := 30; i < 90; i++ {
		query(i)
	}
	waitHealthy(t, router.base(), 2)
	oracle.Check(t, http.DefaultClient, router.base(), oracle.Ref{Q: fixture}, oracle.Sample(fixture, 2, 4))

	shards[1].Restart()
	waitHealthy(t, router.base(), 3)
	for i := 90; i < 120; i++ {
		query(i)
	}
	oracle.Check(t, http.DefaultClient, router.base(), oracle.Ref{Q: fixture}, oracle.Sample(fixture, 3, 4))
}

// TestRollingRefreshNeverTornGeneration: with a rolling refresh in
// flight (shards disagreeing on snapshot generation), every fleet
// response must be PURE — matching either the old snapshot's answer or
// the new one's bit-for-bit, never a mixture. The deterministic torn
// window: edges applied everywhere, then shards refreshed one at a time
// by hand, probing the router between every step.
func TestRollingRefreshNeverTornGeneration(t *testing.T) {
	router, shards := startFleet(t, 3, true)
	const probe = "/source?node=5&k=20"

	var ref0 oracle.Source
	oracle.Get(t, http.DefaultClient, router.base()+probe, http.StatusOK, &ref0)

	// New shared in-neighbors for nodes 5 and 20 (SimRank walks
	// backward), among EXISTING nodes so node ranges agree across
	// generations. The router fans the batch to every shard.
	var er struct {
		Inserted int    `json:"inserted"`
		Gen      uint64 `json:"gen"`
		Shards   int    `json:"shards"`
	}
	oracle.Post(t, http.DefaultClient, router.base()+"/edges",
		`{"insert":[[1,5],[1,20],[2,5],[2,20],[3,5],[3,20]]}`, http.StatusOK, &er)
	// Some inserts may duplicate existing RMAT edges (idempotent no-ops);
	// what matters is that every shard applied the same batch.
	if er.Shards != 3 || er.Inserted == 0 {
		t.Fatalf("edge fan-out: %+v, want new edges applied on 3 shards", er)
	}
	newGen := er.Gen
	if newGen == ref0.Gen {
		t.Fatalf("edit gen %d did not advance past snapshot gen %d", newGen, ref0.Gen)
	}

	// Roll the first shard by hand and capture the pure new-snapshot
	// reference from it directly.
	oracle.Post(t, http.DefaultClient, shards[0].base()+"/refresh?wait=1", "", http.StatusOK, nil)
	var refNew oracle.Source
	oracle.Get(t, http.DefaultClient, shards[0].base()+probe, http.StatusOK, &refNew)
	if refNew.Gen != newGen {
		t.Fatalf("rolled shard serves gen %d, want %d", refNew.Gen, newGen)
	}
	if slices.Equal(ref0.Results, refNew.Results) {
		t.Fatal("fixture is useless: the edits did not change the probed answer")
	}

	// checkPure asserts a routed response is one snapshot's answer, whole.
	checkPure := func(stage string) {
		t.Helper()
		for n := 0; n < 8; n++ {
			var got oracle.Source
			oracle.Get(t, http.DefaultClient, router.base()+probe, http.StatusOK, &got)
			switch got.Gen {
			case ref0.Gen:
				if !slices.Equal(got.Results, ref0.Results) {
					t.Fatalf("%s: gen-%d response differs from the gen-%d reference: %v", stage, got.Gen, ref0.Gen, got.Results)
				}
			case newGen:
				if !slices.Equal(got.Results, refNew.Results) {
					t.Fatalf("%s: gen-%d response differs from the gen-%d reference: %v", stage, got.Gen, newGen, got.Results)
				}
			default:
				t.Fatalf("%s: response at unexpected gen %d (references are %d and %d)", stage, got.Gen, ref0.Gen, newGen)
			}
			// Batches pin one shard snapshot; their gen must be pure too.
			var pb oracle.Pairs
			oracle.Post(t, http.DefaultClient, router.base()+"/pairs", `{"pairs":[[5,20],[1,2]]}`, http.StatusOK, &pb)
			if pb.Gen != ref0.Gen && pb.Gen != newGen {
				t.Fatalf("%s: /pairs at unexpected gen %d", stage, pb.Gen)
			}
		}
	}
	checkPure("1/3 rolled")
	oracle.Post(t, http.DefaultClient, shards[1].base()+"/refresh?wait=1", "", http.StatusOK, nil)
	checkPure("2/3 rolled")
	oracle.Post(t, http.DefaultClient, shards[2].base()+"/refresh?wait=1", "", http.StatusOK, nil)

	// Fully rolled: the fleet must now answer with the new snapshot only.
	var final oracle.Source
	oracle.Get(t, http.DefaultClient, router.base()+probe, http.StatusOK, &final)
	if final.Gen != newGen || !slices.Equal(final.Results, refNew.Results) {
		t.Fatalf("after full roll: gen %d results %v, want gen %d results %v",
			final.Gen, final.Results, newGen, refNew.Results)
	}

	// And the router's own rolling /refresh drives the same protocol end
	// to end: apply another batch, roll the whole fleet in one call.
	oracle.Post(t, http.DefaultClient, router.base()+"/edges", `{"insert":[[7,5],[7,20]]}`, http.StatusOK, &er)
	var rr struct {
		Rolled int    `json:"rolled"`
		Gen    uint64 `json:"gen"`
	}
	oracle.Post(t, http.DefaultClient, router.base()+"/refresh", "", http.StatusOK, &rr)
	if rr.Rolled != 3 || rr.Gen != er.Gen {
		t.Fatalf("router rolling refresh: %+v, want 3 shards rolled to gen %d", rr, er.Gen)
	}
	var after oracle.Source
	oracle.Get(t, http.DefaultClient, router.base()+probe, http.StatusOK, &after)
	if after.Gen != er.Gen {
		t.Fatalf("post-roll probe at gen %d, want %d", after.Gen, er.Gen)
	}
}
