// Package fleet turns cloudwalkerd into a deployable multi-process
// serving fleet: a Router frontend consistent-hashes every query to the
// one shard daemon that owns its key, fails over to the next replica when
// a shard dies, and keeps a generation floor so no client sees the graph
// move backwards during a rolling refresh.
//
// This is the serving-side counterpart of the paper's broadcast model
// (simulated offline in internal/dist): every shard holds the full graph
// and index (Monte Carlo walks need the whole graph locally, exactly like
// the broadcast model's replicated dataset), so one shard answers a whole
// query, and adding shards buys throughput and failover depth.
package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVnodes is the number of virtual points each member contributes
// to the ring. More vnodes smooth the key distribution (the balance
// property test pins the bound) at O(members·vnodes·log) ring-build cost.
const DefaultVnodes = 128

// Ring is an immutable consistent-hash ring over a set of member
// addresses. Lookups walk clockwise from the key's hash; membership
// changes build a new ring (WithMember/WithoutMember), which moves only
// the keys whose clockwise arc gained or lost a point — the minimal-
// movement property the ring_test property suite pins.
type Ring struct {
	vnodes  int
	members []string // sorted, unique
	points  []ringPoint
}

type ringPoint struct {
	hash   uint64
	member int32 // index into members
}

// NewRing builds a ring over members with vnodes virtual points each
// (vnodes <= 0 means DefaultVnodes). Duplicate members collapse; an empty
// member list yields an empty ring (lookups return "").
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	r := &Ring{vnodes: vnodes, members: uniq}
	r.points = make([]ringPoint, 0, len(uniq)*vnodes)
	for mi, m := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:   hashString(m + "#" + strconv.Itoa(v)),
				member: int32(mi),
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash collisions between vnode points are broken by member index
		// so ring contents are independent of insertion order.
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Members returns the ring's members in sorted order. The slice is
// shared; callers must not modify it.
func (r *Ring) Members() []string { return r.members }

// Len returns the number of members.
func (r *Ring) Len() int { return len(r.members) }

// Index returns the position of member in Members(), or -1.
func (r *Ring) Index(member string) int {
	i := sort.SearchStrings(r.members, member)
	if i < len(r.members) && r.members[i] == member {
		return i
	}
	return -1
}

// WithMember returns a new ring with member added (no-op copy if already
// present).
func (r *Ring) WithMember(member string) *Ring {
	return NewRing(append(append([]string{}, r.members...), member), r.vnodes)
}

// WithoutMember returns a new ring with member removed (no-op copy if
// absent).
func (r *Ring) WithoutMember(member string) *Ring {
	keep := make([]string, 0, len(r.members))
	for _, m := range r.members {
		if m != member {
			keep = append(keep, m)
		}
	}
	return NewRing(keep, r.vnodes)
}

// Owner returns the member owning key (the first ring point clockwise
// from the key's hash), or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.members[r.points[r.search(key)].member]
}

// Successors returns every member in failover order for key: the owner
// first, then each distinct member encountered walking the ring
// clockwise. A request that fails on the owner retries down this list, so
// the fallback replica for a key is stable across routers.
func (r *Ring) Successors(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	out := make([]string, 0, len(r.members))
	seen := make([]bool, len(r.members))
	for i, n := r.search(key), 0; n < len(r.points) && len(out) < len(r.members); n++ {
		p := r.points[(i+n)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, r.members[p.member])
		}
	}
	return out
}

// search returns the index of the first point at or clockwise-after the
// key's hash.
func (r *Ring) search(key string) int {
	h := hashString(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the lowest point owns the top arc
	}
	return i
}

// PairKey is the ring key of a canonical single-pair query — the unit of
// /pair cache affinity.
func PairKey(ci, cj int) string {
	return "p/" + strconv.Itoa(ci) + "/" + strconv.Itoa(cj)
}

// NodeKey is the ring key of a per-node query (/source owner routing in
// replicated mode).
func NodeKey(node int) string {
	return "n/" + strconv.Itoa(node)
}

// hashString is the ring's hash: 64-bit FNV-1a through a splitmix64
// finalizer. FNV alone clusters on the near-identical "member#vnode"
// labels (the balance property test catches >1.8x skew without the
// finalizer); the finalizer decorrelates them. The hash only has to be
// stable across processes and well-mixed; it is not exposed on any wire
// format.
func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	z := h.Sum64() + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// String renders the ring for logs and /fleet status.
func (r *Ring) String() string {
	return fmt.Sprintf("ring(%d members, %d vnodes)", len(r.members), r.vnodes)
}
