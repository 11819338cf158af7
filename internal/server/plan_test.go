package server

import (
	"net/http"
	"net/url"
	"strings"
	"testing"

	"cloudwalker/internal/core"
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
// table, once: requested backend (absent inherits the server default in
// the second column) × epsilon × mode → effective backend, effective
// epsilon, and the status under each linearized-engine state of the
// snapshot (none, a rebuild pending, ready). backend=auto, like any
// unknown name, is a 400 whatever else holds. /pair and each /pairs batch
// resolve the walk-mode rows; /source all of them. The HTTP-level cases
// this absorbed (TestBackendLinFeatureConflicts, the epsilon×lin row of
// TestBackendPairsBatch, the epsilon×pull row of
// TestSourceAdaptiveEndpoint) keep one fence each in
// TestResolveReachesEveryEndpoint.
func TestResolveRuleTable(t *testing.T) {
	type row struct {
		backend, serverDefault string
		eps                    epsCase
		mode                   core.SingleSourceMode
		wantBackend            string
		wantEps                float64
		wantStatus             [3]int // indexed by linState: none, pending, ready
	}
	rows := []row{
		{"", "mc", epsAbsent, core.WalkSS, "mc", 0, [3]int{200, 200, 200}},
		{"", "mc", epsAbsent, core.PullSS, "mc", 0, [3]int{200, 200, 200}},
		{"", "mc", epsIndex, core.WalkSS, "mc", 0.1, [3]int{200, 200, 200}},
		{"", "mc", epsIndex, core.PullSS, "mc", 0, [3]int{200, 200, 200}},
		{"", "mc", epsZero, core.WalkSS, "mc", 0, [3]int{200, 200, 200}},
		{"", "mc", epsZero, core.PullSS, "mc", 0, [3]int{200, 200, 200}},
		{"", "mc", epsSet, core.WalkSS, "mc", 0.2, [3]int{200, 200, 200}},
		{"", "mc", epsSet, core.PullSS, "", 0, [3]int{400, 400, 400}},
		{"", "lin", epsAbsent, core.WalkSS, "lin", 0, [3]int{400, 503, 200}},
		{"", "lin", epsAbsent, core.PullSS, "mc", 0, [3]int{200, 200, 200}},
		{"", "lin", epsIndex, core.WalkSS, "lin", 0, [3]int{400, 503, 200}},
		{"", "lin", epsIndex, core.PullSS, "mc", 0, [3]int{200, 200, 200}},
		{"", "lin", epsZero, core.WalkSS, "lin", 0, [3]int{400, 503, 200}},
		{"", "lin", epsZero, core.PullSS, "mc", 0, [3]int{200, 200, 200}},
		{"", "lin", epsSet, core.WalkSS, "mc", 0.2, [3]int{200, 200, 200}},
		{"", "lin", epsSet, core.PullSS, "", 0, [3]int{400, 400, 400}},
		{"mc", "mc", epsAbsent, core.WalkSS, "mc", 0, [3]int{200, 200, 200}},
		{"mc", "mc", epsAbsent, core.PullSS, "mc", 0, [3]int{200, 200, 200}},
		{"mc", "mc", epsIndex, core.WalkSS, "mc", 0.1, [3]int{200, 200, 200}},
		{"mc", "mc", epsIndex, core.PullSS, "mc", 0, [3]int{200, 200, 200}},
		{"mc", "mc", epsZero, core.WalkSS, "mc", 0, [3]int{200, 200, 200}},
		{"mc", "mc", epsZero, core.PullSS, "mc", 0, [3]int{200, 200, 200}},
		{"mc", "mc", epsSet, core.WalkSS, "mc", 0.2, [3]int{200, 200, 200}},
		{"mc", "mc", epsSet, core.PullSS, "", 0, [3]int{400, 400, 400}},
		{"lin", "mc", epsAbsent, core.WalkSS, "lin", 0, [3]int{400, 503, 200}},
		{"lin", "mc", epsAbsent, core.PullSS, "", 0, [3]int{400, 400, 400}},
		{"lin", "mc", epsIndex, core.WalkSS, "lin", 0, [3]int{400, 503, 200}},
		{"lin", "mc", epsIndex, core.PullSS, "", 0, [3]int{400, 400, 400}},
		{"lin", "mc", epsZero, core.WalkSS, "lin", 0, [3]int{400, 503, 200}},
		{"lin", "mc", epsZero, core.PullSS, "", 0, [3]int{400, 400, 400}},
		{"lin", "mc", epsSet, core.WalkSS, "", 0, [3]int{400, 400, 400}},
		{"lin", "mc", epsSet, core.PullSS, "", 0, [3]int{400, 400, 400}},
	}
	for _, dflt := range []string{BackendMC, BackendLin} {
		for eps := epsAbsent; eps <= epsSet; eps++ {
			for _, mode := range []core.SingleSourceMode{core.WalkSS, core.PullSS} {
				rows = append(rows, row{"auto", dflt, eps, mode, "", 0, [3]int{400, 400, 400}})
			}
		}
	}
	for _, row := range rows {
		d := defaults{backend: row.serverDefault, delta: 0.05}
		p := plan{backend: row.backend, mode: row.mode}
		switch row.eps {
		case epsIndex:
			d.eps = 0.1
		case epsZero:
			p.epsSet = true
		case epsSet:
			p.eps, p.epsSet = 0.2, true
		}
		kinds := []queryKind{kindSource}
		if row.mode == core.WalkSS {
			kinds = append(kinds, kindPair) // /pair and every /pairs batch
		}
		for _, kind := range kinds {
			p.kind = kind
			for lin := linNone; lin <= linReady; lin++ {
				got, status, err := resolve(p, d, lin)
				if status != row.wantStatus[lin] || (err != nil) != (status != http.StatusOK) {
					t.Errorf("%+v kind %d lin %d: status %d err %v, want %d", row, kind, lin, status, err, row.wantStatus[lin])
					continue
				}
				if err == nil && (got.backend != row.wantBackend || got.eps != row.wantEps || got.delta != 0.05) {
					t.Errorf("%+v kind %d lin %d: resolved backend %q eps %g delta %g, want %q %g 0.05",
						row, kind, lin, got.backend, got.eps, got.delta, row.wantBackend, row.wantEps)
				}
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
	getJSON(t, ts, "/source?node=1&backend=lin&epsilon=0.05", http.StatusBadRequest, &eb)
	if !strings.Contains(eb.Error, reason) {
		t.Fatalf("/source rejection %q does not give the reason", eb.Error)
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
	getJSON(t, ts, "/source?node=1&backend=lin&mode=pull", http.StatusBadRequest, nil)
	getJSON(t, ts, "/source?node=1&mode=pull&epsilon=0.2", http.StatusBadRequest, nil)

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
	getJSON(t, lints, "/source?node=1&mode=pull", http.StatusOK, &sr)
	if sr.Backend != BackendMC || sr.Mode != "pull" {
		t.Fatalf("lin default+pull answered backend %q mode %q, want mc pull", sr.Backend, sr.Mode)
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
	source := plan{kind: kindSource, i: 33, k: 5, delta: 0.05}
	pull := source
	pull.mode = core.PullSS
	part := source
	part.part, part.parts = 1, 3
	partAdaptive := part
	partAdaptive.eps, partAdaptive.delta = 0.1, 0.01
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
		{source, 0, "g0/s/walk/5/33"},
		{pull, 0, "g0/s/pull/5/33"},
		{lin(source), 0, "g0/s/lin/5/33"},
		{part, 2, "g2/s/walk/5/33/pt1/3"},
		{lin(part), 2, "g2/s/lin/5/33/pt1/3"},
		{partAdaptive, 2, "g2/s/walk/5/33/pt1/3/e0.1/d0.01"},
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
	q, _ = url.ParseQuery("node=7&mode=pull&k=5000&part=2/3")
	p, err = parseSource(q, 300)
	if err != nil {
		t.Fatal(err)
	}
	want = plan{kind: kindSource, i: 7, k: maxTopK, part: 2, parts: 3, mode: core.PullSS}
	if p != want {
		t.Fatalf("parseSource = %+v, want %+v", p, want)
	}
	for raw, name := range map[string]string{
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
