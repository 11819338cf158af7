// The query plan: every query request (/pair, each element of /pairs,
// /source) is parsed once into a plan, checked by one pure function
// holding the whole conflict table, keyed in one place, and answered by
// Server.execute (execute.go). Handlers are parse → resolve → execute →
// encode. A plan is the request's own words: no server flag or index
// field changes what a URL means.

package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"cloudwalker/internal/core"
)

// Backend names accepted by the backend= query parameter and the /pairs
// "backend" body field. A request that names none is answered by mc.
const (
	BackendMC  = "mc"  // the Monte Carlo index (core.Querier)
	BackendLin = "lin" // linearized truncated series (linserve.Engine)
)

// linState is what the served snapshot offers a lin plan: an engine, one
// a background re-solve will flip in (a dynamic server's, after a
// hot-swap), or none.
type linState uint8

const (
	linNone linState = iota
	linPending
	linReady
)

type queryKind uint8

const (
	kindPair queryKind = iota
	kindSource
)

// plan is one query, as the request wrote it; resolve checks it and
// names the backend of a request that named none.
type plan struct {
	kind queryKind
	// i, j is the canonical pair (i <= j); a source query's node is i.
	i, j int
	// Source only: result size and partition restriction part/parts (parts
	// == 0 is the whole space).
	k           int
	part, parts int

	backend string  // "" until resolved: mc
	eps     float64 // 0 (absent): the fixed walker budget
	delta   float64 // defaultDelta when absent
}

// defaultDelta is the confidence parameter of an adaptive pair request
// that names epsilon but no delta.
const defaultDelta = 0.05

// resolve checks p against the conflict table, returning the effective
// plan (backend mc or lin) or the status and reason the request is
// refused with:
//
//	backend      absent → mc; anything but mc or lin → 400
//	ε            outside [0,1) → 400; with ε > 0, δ outside (0,1) → 400
//	/source      × ε > 0        → 400
//	backend lin  × ε > 0        → 400
//	backend lin  × no engine    503 while a re-solve will bring one, else 400
//
// Adaptive sampling is a pair notion: /source on either backend, and
// the linearized engine's pairs, evaluate a deterministic series with no
// walker population to stop early. The 503 is the one refusal that is
// not the request's fault: a fleet router fails over on it, where it
// would relay a 400 to the client as final.
func resolve(p plan, lin linState) (plan, int, error) {
	reject := func(format string, args ...any) (plan, int, error) {
		return plan{}, http.StatusBadRequest, fmt.Errorf(format, args...)
	}
	switch p.backend {
	case "":
		p.backend = BackendMC
	case BackendMC, BackendLin:
	default:
		return reject("parameter \"backend\": want mc or lin, got %q", p.backend)
	}
	if !(p.eps >= 0 && p.eps < 1) { // NaN fails too
		return reject("parameter \"epsilon\": %g outside [0,1)", p.eps)
	}
	if p.eps > 0 {
		switch {
		case p.kind == kindSource:
			return reject("parameter \"epsilon\": adaptive sampling applies to /pair and /pairs; /source evaluates a deterministic series")
		case !(p.delta > 0 && p.delta < 1):
			return reject("parameter \"delta\": %g outside (0,1)", p.delta)
		case p.backend == BackendLin:
			return reject("parameter \"epsilon\": adaptive sampling requires backend=mc (the linearized engine is deterministic)")
		}
	}
	if p.backend == BackendLin {
		switch lin {
		case linPending:
			return plan{}, http.StatusServiceUnavailable, errors.New("backend \"lin\": the linearized engine for this snapshot is still being rebuilt after a hot-swap; retry shortly")
		case linNone:
			return reject("backend \"lin\": no linearized diagonal for this snapshot (start cloudwalkerd with -lin, or restore a snapshot that has one)")
		}
	}
	return p, http.StatusOK, nil
}

// key is the cache and singleflight key of the resolved plan under
// snapshot generation gen. The generation prefix means entries computed
// against an old snapshot can never answer a query against a new one
// (and a hot swap empties the cache); a pair's effective (ε,δ) suffix
// keeps adaptive and fixed-budget answers apart; and lin answers live
// in their own slots because the two backends
// return different numbers for the same query. Monte Carlo pair keys
// carry no backend marker, so explicit backend=mc and backend-less
// requests share entries; a source key names its resolved backend.
func (p plan) key(gen uint64) string {
	var buf [64]byte
	b := strconv.AppendUint(append(buf[:0], 'g'), gen, 36)
	if p.kind == kindSource {
		b = append(append(b, "/s/"...), p.backend...)
		b = strconv.AppendInt(append(b, '/'), int64(p.k), 10)
		b = strconv.AppendInt(append(b, '/'), int64(p.i), 10)
		if p.parts > 0 {
			b = strconv.AppendInt(append(b, "/pt"...), int64(p.part), 10)
			b = strconv.AppendInt(append(b, '/'), int64(p.parts), 10)
		}
		return string(b)
	}
	b = strconv.AppendInt(append(b, "/p/"...), int64(p.i), 10)
	b = strconv.AppendInt(append(b, '/'), int64(p.j), 10)
	switch {
	case p.backend == BackendLin:
		b = append(b, "/b=lin"...)
	case p.eps > 0:
		b = strconv.AppendFloat(append(b, "/e"...), p.eps, 'g', -1, 64)
		b = strconv.AppendFloat(append(b, "/d"...), p.delta, 'g', -1, 64)
	}
	return string(b)
}

// partLabel renders the partition restriction as the wire's "i/N" ("" for a
// whole-space plan).
func (p plan) partLabel() string {
	if p.parts == 0 {
		return ""
	}
	return strconv.Itoa(p.part) + "/" + strconv.Itoa(p.parts)
}

// DefaultTopK is the k of a /source request that names none.
const DefaultTopK = 20

// ParseNode reads a required integer query parameter. The fleet router
// parses with it too, so router and shard reject malformed input with
// the same words; only a shard knows the node count to range-check
// against (parseNodeIn).
func ParseNode(q url.Values, name string) (int, error) {
	raw := q.Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing required parameter %q", name)
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %q is not an integer", name, raw)
	}
	return v, nil
}

// parseNodeIn is ParseNode range-checked against the snapshot being
// served (node counts change across hot-swaps, so the check must use the
// same snapshot the query will run on).
func parseNodeIn(q url.Values, name string, n int) (int, error) {
	v, err := ParseNode(q, name)
	if err == nil && (v < 0 || v >= n) {
		err = fmt.Errorf("node %d out of range [0,%d)", v, n)
	}
	return v, err
}

// ParseTopK reads the optional k query parameter: def when absent, capped
// at maxTopK.
func ParseTopK(q url.Values, def int) (int, error) {
	raw := q.Get("k")
	if raw == "" {
		return def, nil
	}
	k, err := strconv.Atoi(raw)
	if err != nil || k <= 0 {
		return 0, fmt.Errorf("parameter \"k\": %q is not a positive integer", raw)
	}
	return min(k, maxTopK), nil
}

// parseTuning reads the parameters every query kind shares: backend=,
// epsilon=, delta=. Ranges and names are resolve's to judge.
func (p *plan) parseTuning(q url.Values) (err error) {
	p.backend = q.Get("backend")
	if p.eps, err = optFloat(q, "epsilon", 0); err != nil {
		return err
	}
	p.delta, err = optFloat(q, "delta", defaultDelta)
	return err
}

// optFloat reads an optional float parameter, def when absent.
func optFloat(q url.Values, name string, def float64) (float64, error) {
	raw := q.Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %q is not a number", name, raw)
	}
	return v, nil
}

// parsePair reads a /pair query against a graph of n nodes, returning
// the plan and the pair as the client wrote it (the response echoes it
// uncanonicalized).
func parsePair(q url.Values, n int) (p plan, i, j int, err error) {
	if i, err = parseNodeIn(q, "i", n); err != nil {
		return p, 0, 0, err
	}
	if j, err = parseNodeIn(q, "j", n); err != nil {
		return p, 0, 0, err
	}
	p.kind = kindPair
	p.i, p.j = core.CanonicalPair(i, j)
	return p, i, j, p.parseTuning(q)
}

// parseSource reads a /source query against a graph of n nodes.
func parseSource(q url.Values, n int) (p plan, err error) {
	p.kind = kindSource
	if p.i, err = parseNodeIn(q, "node", n); err != nil {
		return p, err
	}
	// /source has one estimator, the pruned series over the index's
	// diagonal, so the retired mode= selector names nothing it could run.
	if q.Has("mode") {
		return p, fmt.Errorf("parameter \"mode\": /source has one estimator, the series over the index's diagonal, and takes no mode; got %q", q.Get("mode"))
	}
	if p.k, err = ParseTopK(q, DefaultTopK); err != nil {
		return p, err
	}
	if p.part, p.parts, err = parsePart(q.Get("part")); err != nil {
		return p, err
	}
	return p, p.parseTuning(q)
}

// parsePart reads the optional part=i/N value. Absent yields parts == 0
// (no restriction).
func parsePart(raw string) (part, parts int, err error) {
	if raw == "" {
		return 0, 0, nil
	}
	slash := strings.IndexByte(raw, '/')
	if slash < 0 {
		return 0, 0, fmt.Errorf("parameter \"part\": want i/N, got %q", raw)
	}
	part, err = strconv.Atoi(raw[:slash])
	if err == nil {
		parts, err = strconv.Atoi(raw[slash+1:])
	}
	if err != nil || parts < 1 || parts > maxParts || part < 0 || part >= parts {
		return 0, 0, fmt.Errorf("parameter \"part\": want i/N with 0 <= i < N <= %d, got %q", maxParts, raw)
	}
	return part, parts, nil
}
