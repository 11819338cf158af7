package main

import (
	"strconv"
	"strings"

	"cloudwalker/internal/xrand"
)

type reqKind uint8

const (
	kindPair    reqKind = iota // GET /pair, fixed budget
	kindPairEps                // GET /pair?epsilon=0.01 (adaptive waves)
	kindSource                 // GET /source
	kindPairs                  // POST /pairs
)

const (
	adaptiveEps   = 0.01
	adaptiveDelta = 0.05
	batchSize     = 8
	sourceK       = 20
)

// request is one operation of a workload's stream. A stream is a pure
// function of (seed, index): request i is the same whoever computes it,
// so the load window, the answer checks and every traced depth replay
// identical operations without storing them.
type request struct {
	kind  reqKind
	i, j  int      // pair endpoints; for kindSource i is the node
	k     int      // top-k of a source request
	lin   bool     // answered by the linearized backend
	batch [][2]int // kindPairs
}

type stream func(idx int) request

// path renders the request's URL path and query; body is non-empty for
// POST requests only.
func (r request) path() (path, body string) {
	backend := ""
	if r.lin {
		backend = "&backend=lin"
	}
	switch r.kind {
	case kindPair:
		return "/pair?i=" + strconv.Itoa(r.i) + "&j=" + strconv.Itoa(r.j) + backend, ""
	case kindPairEps:
		return "/pair?i=" + strconv.Itoa(r.i) + "&j=" + strconv.Itoa(r.j) +
			"&epsilon=" + strconv.FormatFloat(adaptiveEps, 'g', -1, 64) +
			"&delta=" + strconv.FormatFloat(adaptiveDelta, 'g', -1, 64), ""
	case kindSource:
		return "/source?node=" + strconv.Itoa(r.i) + "&k=" + strconv.Itoa(r.k) + backend, ""
	default:
		var sb strings.Builder
		sb.WriteString(`{"pairs":[`)
		for n, p := range r.batch {
			if n > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString("[" + strconv.Itoa(p[0]) + "," + strconv.Itoa(p[1]) + "]")
		}
		sb.WriteString("]}")
		return "/pairs", sb.String()
	}
}

// randomPair draws a uniformly random pair of distinct indices below n.
// Over the ~5·10⁹ pairs of a 10⁵-node graph a run's few 10⁴ draws repeat
// with probability ~10⁻¹ in total, so the stream is distinct for every
// purpose the cold workloads have (they assert the server's hit ratio).
func randomPair(src *xrand.Source, n int) (int, int) {
	i := src.Intn(n)
	j := src.Intn(n - 1)
	if j >= i {
		j++
	}
	return i, j
}

// mixedColdStream interleaves cold pair and source queries over the given
// nodes: of every `period` consecutive requests the last `sources` are
// /source. Pairs are uniformly random; sources walk the nodes in a seeded
// permutation order, and once every node has been used, again with the
// next k — k is part of the server's cache key, so the request stays cold
// on graphs with fewer nodes than a run has source queries.
func mixedColdStream(seed uint64, nodes []int, period, sources int, lin bool) stream {
	perm := xrand.NewStream(seed, 0x7065726d).Perm(len(nodes)) // "perm"
	return func(idx int) request {
		if pos := idx % period; pos >= period-sources {
			ord := idx/period*sources + pos - (period - sources)
			return request{kind: kindSource, i: nodes[perm[ord%len(nodes)]], k: sourceK + ord/len(nodes), lin: lin}
		}
		i, j := randomPair(xrand.NewStream(seed, uint64(idx)), len(nodes))
		return request{kind: kindPair, i: nodes[i], j: nodes[j], lin: lin}
	}
}

const (
	zipfKeys = 32768
	zipfS    = 1.0
)

// zipfStream draws request idx's key from Zipf(s) over zipfKeys keys. A
// key always maps to the same request, whatever the seed: the seed decides
// the order keys are asked in, not what the keys are, so every run serves
// the same population and its hit ratio and share of expensive misses do
// not wander with the seed. A key's kind follows from its rank modulo 20
// — 14 pairs (ranks ≡ 0 mod 4 among them adaptive), 5 sources, 1 batch —
// so the 70/25/5 mix holds at every popularity level.
func zipfStream(seed uint64, n int, z *zipf) stream {
	return func(idx int) request {
		rank := z.rank(xrand.NewStream(seed, uint64(idx)).Float64())
		src := xrand.NewStream(0x6b6579, uint64(rank)) // "key"
		switch pos := rank % 20; {
		case pos < 14:
			i, j := randomPair(src, n)
			if pos%4 == 0 {
				return request{kind: kindPairEps, i: i, j: j}
			}
			return request{kind: kindPair, i: i, j: j}
		case pos < 19:
			return request{kind: kindSource, i: src.Intn(n), k: sourceK}
		default:
			batch := make([][2]int, batchSize)
			for b := range batch {
				batch[b][0], batch[b][1] = randomPair(src, n)
			}
			return request{kind: kindPairs, batch: batch}
		}
	}
}
