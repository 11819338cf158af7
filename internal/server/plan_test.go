package server

import (
	"cloudwalker/internal/oracle"
	"net/http"
	"net/url"
	"strings"
	"testing"
)

// TestResolveRuleTable is the serving tier's whole conflict table, once:
// query kind (/pair and every /pairs batch, or /source) × requested
// backend (absent means mc) × epsilon (absent and 0 are one plan, the
// fixed budget) → effective backend, effective epsilon, and the status
// under each linearized-engine state of the snapshot (none, a rebuild
// pending, ready). backend=auto, like any unknown name, is a 400
// whatever else holds. The HTTP-level cases this absorbed keep one fence
// each in TestResolveReachesEveryEndpoint.
func TestResolveRuleTable(t *testing.T) {
	type row struct {
		kind        queryKind
		backend     string
		eps         float64
		wantBackend string
		wantStatus  [3]int // indexed by linState: none, pending, ready
	}
	const pair, source = kindPair, kindSource
	ok, linOK, bad := [3]int{200, 200, 200}, [3]int{400, 503, 200}, [3]int{400, 400, 400}
	rows := []row{
		{pair, "", 0, "mc", ok},
		{pair, "", 0.2, "mc", ok},
		{pair, "mc", 0, "mc", ok},
		{pair, "mc", 0.2, "mc", ok},
		{pair, "lin", 0, "lin", linOK},
		{pair, "lin", 0.2, "", bad},
		{source, "", 0, "mc", ok},
		{source, "", 0.2, "", bad},
		{source, "mc", 0, "mc", ok},
		{source, "mc", 0.2, "", bad},
		{source, "lin", 0, "lin", linOK},
		{source, "lin", 0.2, "", bad},
	}
	for _, kind := range []queryKind{pair, source} {
		for _, eps := range []float64{0, 0.2} {
			rows = append(rows, row{kind, "auto", eps, "", bad})
		}
	}
	for _, row := range rows {
		p := plan{kind: row.kind, backend: row.backend, eps: row.eps, delta: defaultDelta}
		for lin := linNone; lin <= linReady; lin++ {
			got, status, err := resolve(p, lin)
			if status != row.wantStatus[lin] || (err != nil) != (status != http.StatusOK) {
				t.Errorf("%+v lin %d: status %d err %v, want %d", row, lin, status, err, row.wantStatus[lin])
				continue
			}
			if err == nil && (got.backend != row.wantBackend || got.eps != row.eps || got.delta != defaultDelta) {
				t.Errorf("%+v lin %d: resolved backend %q eps %g delta %g, want %q %g %g",
					row, lin, got.backend, got.eps, got.delta, row.wantBackend, row.eps, defaultDelta)
			}
		}
	}
}

// TestResolveRejectsMalformed: names and ranges outside the table's
// dimensions reject too, whatever else the request says.
func TestResolveRejectsMalformed(t *testing.T) {
	for _, p := range []plan{
		{backend: "turbo"},
		{backend: "auto"},
		{eps: -0.1},
		{eps: 1},
		{eps: 0.1, delta: 0},
		{eps: 0.1, delta: 1},
	} {
		if _, status, err := resolve(p, linReady); err == nil || status != http.StatusBadRequest {
			t.Errorf("%+v: status %d err %v, want 400", p, status, err)
		}
	}
	// An out-of-range delta is only an error when something samples
	// adaptively.
	for _, kind := range []queryKind{kindPair, kindSource} {
		if _, _, err := resolve(plan{kind: kind, delta: 5}, linReady); err != nil {
			t.Errorf("kind %d: delta without epsilon rejected: %v", kind, err)
		}
	}
}

// TestResolveReachesEveryEndpoint is the HTTP fence around the table:
// each query endpoint turns a resolve rejection into a 400 carrying the
// rule's own words, and an absent delta into the one default.
func TestResolveReachesEveryEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Lin: linEngine(t)})
	const reason = "adaptive sampling requires backend=mc"
	var eb ErrorBody
	oracle.Get(t, ts.Client(), ts.URL+"/pair?i=1&j=2&backend=lin&epsilon=0.05", http.StatusBadRequest, &eb)
	if !strings.Contains(eb.Error, reason) {
		t.Fatalf("/pair rejection %q does not give the reason", eb.Error)
	}
	oracle.Get(t, ts.Client(), ts.URL+"/pair?i=1&j=2&epsilon=0.05&delta=0", http.StatusBadRequest, &eb)
	if !strings.Contains(eb.Error, `"delta"`) {
		t.Fatalf("/pair explicit delta=0 rejection %q does not name delta", eb.Error)
	}
	for body, want := range map[string]string{
		`{"pairs":[[1,2]],"backend":"lin","epsilon":0.1}`: reason,
		`{"pairs":[[1,2]],"epsilon":0.1,"delta":0}`:       "0 outside (0,1)",
	} {
		resp, err := ts.Client().Post(ts.URL+"/pairs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got := readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(got, want) {
			t.Fatalf("/pairs %s: status %d body %s", body, resp.StatusCode, got)
		}
	}
	for _, q := range []string{"node=1&epsilon=0.05", "node=1&backend=lin&epsilon=0.05"} {
		oracle.Get(t, ts.Client(), ts.URL+"/source?"+q, http.StatusBadRequest, &eb)
		if !strings.Contains(eb.Error, "/source evaluates a deterministic series") {
			t.Fatalf("/source?%s rejection %q does not give the reason", q, eb.Error)
		}
	}

	// epsilon=0 is the fixed budget on either backend, and an absent delta
	// is the one default: the explicit default names the same entry.
	var pr pairResponse
	oracle.Get(t, ts.Client(), ts.URL+"/pair?i=1&j=2&backend=lin&epsilon=0", http.StatusOK, &pr)
	if pr.Backend != BackendLin {
		t.Fatalf("lin+epsilon=0 answered %q, want lin", pr.Backend)
	}
	oracle.Get(t, ts.Client(), ts.URL+"/pair?i=1&j=2&epsilon=0.2", http.StatusOK, &pr)
	if pr.Backend != BackendMC || pr.Epsilon != 0.2 || pr.Cached {
		t.Fatalf("epsilon without delta answered %+v, want a fresh adaptive mc answer", pr)
	}
	first := pr
	oracle.Get(t, ts.Client(), ts.URL+"/pair?i=1&j=2&epsilon=0.2&delta=0.05", http.StatusOK, &pr)
	if !pr.Cached || pr.Score != first.Score {
		t.Fatalf("explicit delta=0.05 answered %+v, want the absent-delta entry %+v", pr, first)
	}
}

// TestPlanKeyBytes pins the key of every request shape: cached entries
// and in-flight computations are shared exactly when these strings are
// equal, and tests (and operators reading a heap dump) address flights
// by them.
func TestPlanKeyBytes(t *testing.T) {
	pair := plan{kind: kindPair, i: 20, j: 21, delta: defaultDelta}
	adaptive := pair
	adaptive.eps = 0.02
	source := plan{kind: kindSource, i: 33, k: 5, backend: BackendMC}
	part := source
	part.part, part.parts = 1, 3
	lin := func(p plan) plan { p.backend = BackendLin; return p }
	for _, tc := range []struct {
		p    plan
		gen  uint64
		want string
	}{
		{pair, 0, "g0/p/20/21"},
		{pair, 71, "g1z/p/20/21"}, // generation in base 36
		{lin(pair), 0, "g0/p/20/21/b=lin"},
		{adaptive, 0, "g0/p/20/21/e0.02/d0.05"},
		{lin(adaptive), 0, "g0/p/20/21/b=lin"}, // lin has no accuracy target
		{source, 0, "g0/s/mc/5/33"},
		{lin(source), 0, "g0/s/lin/5/33"},
		{part, 2, "g2/s/mc/5/33/pt1/3"},
		{lin(part), 2, "g2/s/lin/5/33/pt1/3"},
	} {
		if got := tc.p.key(tc.gen); got != tc.want {
			t.Errorf("key(%d) of %+v = %q, want %q", tc.gen, tc.p, got, tc.want)
		}
	}
}

// TestParseOnce: the parsers fill the plan from one url.Values, echo the
// pair as written, and reject malformed input with the parameter's name.
func TestParseOnce(t *testing.T) {
	q, _ := url.ParseQuery("i=21&j=20&backend=lin&epsilon=0.1&delta=0.2")
	p, i, j, err := parsePair(q, 300)
	if err != nil {
		t.Fatal(err)
	}
	want := plan{kind: kindPair, i: 20, j: 21, backend: BackendLin, eps: 0.1, delta: 0.2}
	if p != want || i != 21 || j != 20 {
		t.Fatalf("parsePair = %+v (%d,%d), want %+v (21,20)", p, i, j, want)
	}
	q, _ = url.ParseQuery("node=7&k=5000&part=2/3")
	p, err = parseSource(q, 300)
	if err != nil {
		t.Fatal(err)
	}
	want = plan{kind: kindSource, i: 7, k: maxTopK, part: 2, parts: 3, delta: defaultDelta}
	if p != want {
		t.Fatalf("parseSource = %+v, want %+v", p, want)
	}
	for raw, name := range map[string]string{
		"node=7&mode=walk":     "the series",
		"node=7&mode=pull":     "the series",
		"node=7&mode=teleport": "mode",
		"node=7&mode=":         "mode",
		"node=7&k=0":           `"k"`,
		"node=7&part=3/3":      "part",
		"node=7&part=x":        "part",
		"node=7&epsilon=abc":   "epsilon",
		"node=7&delta=junk":    "delta",
		"node=300":             "out of range",
		"node=-1":              "out of range",
		"node=seven":           "not an integer",
		"k=3":                  "missing",
	} {
		q, _ := url.ParseQuery(raw)
		if _, err := parseSource(q, 300); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("parseSource(%q) = %v, want an error naming %s", raw, err, name)
		}
	}
}
