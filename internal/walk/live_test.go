package walk

import (
	"sync"
	"testing"

	"cloudwalker/internal/graph"
	"cloudwalker/internal/xrand"
)

// TestWalkOverLiveOverlayNoTear hammers a Dynamic overlay with edge
// churn while the first-meeting walk runs against it through the View
// interface. StepIn reads each row as one stable snapshot, so a mutation
// landing between a degree read and a neighbor fetch must never panic
// (index out of range) — the failure mode of pairing separate
// InDegree/InNeighborAt calls. Run under -race in CI.
func TestWalkOverLiveOverlayNoTear(t *testing.T) {
	base := graph.MustFromEdges(12, [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 1}, {5, 1}, {6, 2}, {7, 3},
		{8, 1}, {9, 1}, {10, 1}, {11, 1},
	})
	d := graph.NewDynamic(base)

	stop := make(chan struct{})
	var mutator, walkers sync.WaitGroup
	mutator.Add(1)
	go func() {
		defer mutator.Done()
		// Churn node 1's in-row (the walkers' hub) between long and
		// short: exactly the shrinking-row race the snapshot read fixes.
		// Every round also inserts an edge from a FRESH node id into the
		// hub, so walkers step into ids beyond the node count they
		// started with.
		fresh := 12
		for {
			select {
			case <-stop:
				return
			default:
			}
			for src := 4; src < 12; src++ {
				if _, err := d.DeleteEdge(src, 1); err != nil {
					t.Error(err)
					return
				}
			}
			for src := 4; src < 12; src++ {
				if _, err := d.InsertEdge(src, 1); err != nil {
					t.Error(err)
					return
				}
			}
			if _, err := d.InsertEdge(fresh, 1); err != nil {
				t.Error(err)
				return
			}
			fresh++
		}
	}()

	for w := 0; w < 4; w++ {
		walkers.Add(1)
		go func(w int) {
			defer walkers.Done()
			src := xrand.NewStream(77, uint64(w))
			for i := 0; i < 3000; i++ {
				MeetingTime(d, 0, 1, 8, src)
			}
		}(w)
	}

	walkers.Wait()
	close(stop)
	mutator.Wait()
}
