package server

import (
	"net/http"
	"net/url"
	"strings"
	"testing"
)

// The four ways a request can stand on epsilon: it names none and the
// served index has no default, names none and inherits the index's 0.1,
// names 0 (the fixed-budget opt-out), or names 0.2.
type epsCase int

const (
	epsAbsent epsCase = iota
	epsIndex
	epsZero
	epsSet
)

// TestResolveRuleTable is the serving tier's whole conflict/degrade
// table, once: query kind (/pair and every /pairs batch, or /source) ×
// requested backend (absent inherits the server default in the third
// column) × epsilon → effective backend, effective epsilon, and the
// status under each linearized-engine state of the snapshot (none, a
// rebuild pending, ready). backend=auto, like any unknown name, is a 400
// whatever else holds. The HTTP-level cases this absorbed keep one fence
// each in TestResolveReachesEveryEndpoint.
func TestResolveRuleTable(t *testing.T) {
	type row struct {
		kind                   queryKind
		backend, serverDefault string
		eps                    epsCase
		wantBackend            string
		wantEps                float64
		wantStatus             [3]int // indexed by linState: none, pending, ready
	}
	const pair, source = kindPair, kindSource
	ok, linOK, bad := [3]int{200, 200, 200}, [3]int{400, 503, 200}, [3]int{400, 400, 400}
	rows := []row{
		{pair, "", "mc", epsAbsent, "mc", 0, ok},
		{pair, "", "mc", epsIndex, "mc", 0.1, ok},
		{pair, "", "mc", epsZero, "mc", 0, ok},
		{pair, "", "mc", epsSet, "mc", 0.2, ok},
		{pair, "", "lin", epsAbsent, "lin", 0, linOK},
		{pair, "", "lin", epsIndex, "lin", 0, linOK},
		{pair, "", "lin", epsZero, "lin", 0, linOK},
		{pair, "", "lin", epsSet, "mc", 0.2, ok},
		{pair, "mc", "mc", epsAbsent, "mc", 0, ok},
		{pair, "mc", "mc", epsIndex, "mc", 0.1, ok},
		{pair, "mc", "mc", epsZero, "mc", 0, ok},
		{pair, "mc", "mc", epsSet, "mc", 0.2, ok},
		{pair, "lin", "mc", epsAbsent, "lin", 0, linOK},
		{pair, "lin", "mc", epsIndex, "lin", 0, linOK},
		{pair, "lin", "mc", epsZero, "lin", 0, linOK},
		{pair, "lin", "mc", epsSet, "", 0, bad},
		{source, "", "mc", epsAbsent, "mc", 0, ok},
		{source, "", "mc", epsIndex, "mc", 0, ok},
		{source, "", "mc", epsZero, "mc", 0, ok},
		{source, "", "mc", epsSet, "", 0, bad},
		{source, "", "lin", epsAbsent, "lin", 0, linOK},
		{source, "", "lin", epsIndex, "lin", 0, linOK},
		{source, "", "lin", epsZero, "lin", 0, linOK},
		{source, "", "lin", epsSet, "", 0, bad},
		{source, "mc", "mc", epsAbsent, "mc", 0, ok},
		{source, "mc", "mc", epsIndex, "mc", 0, ok},
		{source, "mc", "mc", epsZero, "mc", 0, ok},
		{source, "mc", "mc", epsSet, "", 0, bad},
		{source, "lin", "mc", epsAbsent, "lin", 0, linOK},
		{source, "lin", "mc", epsIndex, "lin", 0, linOK},
		{source, "lin", "mc", epsZero, "lin", 0, linOK},
		{source, "lin", "mc", epsSet, "", 0, bad},
	}
	for _, kind := range []queryKind{pair, source} {
		for _, dflt := range []string{BackendMC, BackendLin} {
			for eps := epsAbsent; eps <= epsSet; eps++ {
				rows = append(rows, row{kind, "auto", dflt, eps, "", 0, bad})
			}
		}
	}
	for _, row := range rows {
		d := defaults{backend: row.serverDefault, delta: 0.05}
		p := plan{kind: row.kind, backend: row.backend}
		switch row.eps {
		case epsIndex:
			d.eps = 0.1
		case epsZero:
			p.epsSet = true
		case epsSet:
			p.eps, p.epsSet = 0.2, true
		}
		for lin := linNone; lin <= linReady; lin++ {
			got, status, err := resolve(p, d, lin)
			if status != row.wantStatus[lin] || (err != nil) != (status != http.StatusOK) {
				t.Errorf("%+v lin %d: status %d err %v, want %d", row, lin, status, err, row.wantStatus[lin])
				continue
			}
			if err == nil && (got.backend != row.wantBackend || got.eps != row.wantEps || got.delta != 0.05) {
				t.Errorf("%+v lin %d: resolved backend %q eps %g delta %g, want %q %g 0.05",
					row, lin, got.backend, got.eps, got.delta, row.wantBackend, row.wantEps)
			}
		}
	}
}

// TestResolveRejectsMalformed: names and ranges outside the table's
// dimensions reject too, whatever else the request says.
func TestResolveRejectsMalformed(t *testing.T) {
	d := defaults{backend: BackendMC, delta: 0.05}
	for _, p := range []plan{
		{backend: "turbo"},
		{backend: "auto"},
		{eps: -0.1, epsSet: true},
		{eps: 1, epsSet: true},
		{eps: 0.1, epsSet: true, delta: 0, deltaSet: true},
		{eps: 0.1, epsSet: true, delta: 1, deltaSet: true},
	} {
		if _, status, err := resolve(p, d, linReady); err == nil || status != http.StatusBadRequest {
			t.Errorf("%+v: status %d err %v, want 400", p, status, err)
		}
	}
	// An out-of-range delta is only an error when something samples
	// adaptively.
	if _, _, err := resolve(plan{delta: 5, deltaSet: true}, d, linReady); err != nil {
		t.Errorf("delta without epsilon rejected: %v", err)
	}
	// /source never samples adaptively, not even under an index default.
	withEps := defaults{backend: BackendMC, eps: 0.1, delta: 0.05}
	if _, _, err := resolve(plan{kind: kindSource, delta: 5, deltaSet: true}, withEps, linReady); err != nil {
		t.Errorf("source delta under an inherited epsilon rejected: %v", err)
	}
}

// TestResolveReachesEveryEndpoint is the HTTP fence around the table:
// each query endpoint turns a resolve rejection into a 400 carrying the
// rule's own words, and a degrade into the answer the table promises.
func TestResolveReachesEveryEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Lin: linEngine(t)})
	const reason = "adaptive sampling requires backend=mc"
	var eb errorBody
	getJSON(t, ts, "/pair?i=1&j=2&backend=lin&epsilon=0.05", http.StatusBadRequest, &eb)
	if !strings.Contains(eb.Error, reason) {
		t.Fatalf("/pair rejection %q does not give the reason", eb.Error)
	}
	resp, err := ts.Client().Post(ts.URL+"/pairs", "application/json",
		strings.NewReader(`{"pairs":[[1,2]],"backend":"lin","epsilon":0.1}`))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, reason) {
		t.Fatalf("/pairs rejection: status %d body %s", resp.StatusCode, body)
	}
	for _, q := range []string{"node=1&epsilon=0.05", "node=1&backend=lin&epsilon=0.05"} {
		getJSON(t, ts, "/source?"+q, http.StatusBadRequest, &eb)
		if !strings.Contains(eb.Error, "/source runs the fixed walker budget") {
			t.Fatalf("/source?%s rejection %q does not give the reason", q, eb.Error)
		}
	}

	// Degrades answer 200 on the arm the table names.
	var pr pairResponse
	getJSON(t, ts, "/pair?i=1&j=2&backend=lin&epsilon=0", http.StatusOK, &pr)
	if pr.Backend != BackendLin {
		t.Fatalf("lin+epsilon=0 answered %q, want lin", pr.Backend)
	}
	_, lints := newTestServer(t, Config{Backend: BackendLin, Lin: linEngine(t)})
	getJSON(t, lints, "/pair?i=1&j=2&epsilon=0.2", http.StatusOK, &pr)
	if pr.Backend != BackendMC || pr.Epsilon != 0.2 {
		t.Fatalf("lin default+epsilon answered backend %q epsilon %g, want adaptive mc", pr.Backend, pr.Epsilon)
	}
	var sr sourceResponse
	getJSON(t, lints, "/source?node=1&epsilon=0", http.StatusOK, &sr)
	if sr.Backend != BackendLin {
		t.Fatalf("lin default+epsilon=0 source answered backend %q, want lin", sr.Backend)
	}
}

// TestPlanKeyBytes pins the key of every request shape: cached entries
// and in-flight computations are shared exactly when these strings are
// equal, and tests (and operators reading a heap dump) address flights
// by them.
func TestPlanKeyBytes(t *testing.T) {
	pair := plan{kind: kindPair, i: 20, j: 21, delta: 0.05}
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
	want := plan{kind: kindPair, i: 20, j: 21, backend: BackendLin, eps: 0.1, epsSet: true, delta: 0.2, deltaSet: true}
	if p != want || i != 21 || j != 20 {
		t.Fatalf("parsePair = %+v (%d,%d), want %+v (21,20)", p, i, j, want)
	}
	q, _ = url.ParseQuery("node=7&mode=walk&k=5000&part=2/3")
	p, err = parseSource(q, 300)
	if err != nil {
		t.Fatal(err)
	}
	want = plan{kind: kindSource, i: 7, k: maxTopK, part: 2, parts: 3}
	if p != want {
		t.Fatalf("parseSource = %+v, want %+v", p, want)
	}
	for raw, name := range map[string]string{
		"node=7&mode=pull":     "mode",
		"node=7&mode=teleport": "mode",
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
