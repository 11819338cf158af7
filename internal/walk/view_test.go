package walk

import (
	"testing"

	"cloudwalker/internal/graph"
	"cloudwalker/internal/xrand"
)

// dynamicAndCompacted builds the same effective graph three ways: as a
// dirty overlay (base plus pending edits), as its compacted CSR, and as
// a from-scratch CSR build.
func dynamicAndCompacted(t *testing.T) (*graph.Dynamic, *graph.Graph, *graph.Graph) {
	t.Helper()
	base := graph.MustFromEdges(8, [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {5, 1}, {6, 2}, {2, 6},
	})
	d := graph.NewDynamic(base)
	for _, e := range [][2]int{{4, 5}, {7, 0}, {1, 6}} {
		if ok, err := d.InsertEdge(e[0], e[1]); err != nil || !ok {
			t.Fatalf("insert %v: ok=%v err=%v", e, ok, err)
		}
	}
	if ok, err := d.DeleteEdge(2, 3); err != nil || !ok {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	scratch := graph.MustFromEdges(8, [][2]int{
		{0, 1}, {1, 2}, {3, 4}, {4, 0}, {5, 1}, {6, 2}, {2, 6},
		{4, 5}, {7, 0}, {1, 6},
	})

	// Compact a clone so d itself stays dirty.
	clone := graph.NewDynamic(base)
	for _, e := range [][2]int{{4, 5}, {7, 0}, {1, 6}} {
		if _, err := clone.InsertEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := clone.DeleteEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	compacted, _, err := clone.Compact()
	if err != nil {
		t.Fatal(err)
	}
	return d, compacted, scratch
}

// TestMeetingTimeOverlay runs the first-meeting estimator over the three
// formulations with one RNG stream each; identical stepping order means
// identical meeting times.
func TestMeetingTimeOverlay(t *testing.T) {
	d, compacted, scratch := dynamicAndCompacted(t)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			a := MeetingTime(d, i, j, 10, xrand.NewStream(3, uint64(i*8+j)))
			b := MeetingTime(compacted, i, j, 10, xrand.NewStream(3, uint64(i*8+j)))
			c := MeetingTime(scratch, i, j, 10, xrand.NewStream(3, uint64(i*8+j)))
			if a != b || b != c {
				t.Fatalf("(%d,%d): meeting times %d/%d/%d differ", i, j, a, b, c)
			}
		}
	}
}
