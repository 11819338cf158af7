package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloudwalker/internal/linserve"
)

func TestParseDeadline(t *testing.T) {
	now := time.UnixMilli(1_700_000_000_000)
	mk := func(timeout, header string) *http.Request {
		r := httptest.NewRequest(http.MethodGet, "/pair", nil)
		if timeout != "" {
			q := r.URL.Query()
			q.Set("timeout", timeout)
			r.URL.RawQuery = q.Encode()
		}
		if header != "" {
			r.Header.Set(DeadlineHeader, header)
		}
		return r
	}
	headerAt := func(d time.Duration) string { return FormatDeadline(now.Add(d)) }

	cases := []struct {
		name            string
		timeout, header string
		want            time.Duration // relative to now; only when ok
		ok, wantErr     bool
	}{
		{name: "absent", ok: false},
		{name: "timeout", timeout: "250ms", want: 250 * time.Millisecond, ok: true},
		{name: "timeout capped", timeout: "48h", want: maxTimeout, ok: true},
		{name: "header", header: headerAt(time.Second), want: time.Second, ok: true},
		{name: "earliest wins header", timeout: "10s", header: headerAt(time.Second), want: time.Second, ok: true},
		{name: "earliest wins timeout", timeout: "1s", header: headerAt(time.Minute), want: time.Second, ok: true},
		{name: "malformed timeout", timeout: "banana", wantErr: true},
		{name: "zero timeout", timeout: "0s", wantErr: true},
		{name: "negative timeout", timeout: "-5s", wantErr: true},
		{name: "malformed header", header: "not-millis", wantErr: true},
		{name: "negative header", header: "-12", wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dl, ok, err := ParseDeadline(mk(tc.timeout, tc.header), now)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("ParseDeadline(%q, %q) accepted", tc.timeout, tc.header)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if ok != tc.ok {
				t.Fatalf("ok = %v, want %v", ok, tc.ok)
			}
			if ok && !dl.Equal(now.Add(tc.want)) {
				t.Fatalf("deadline = %v, want now+%v", dl, tc.want)
			}
		})
	}
}

func FuzzParseDeadline(f *testing.F) {
	f.Add("250ms", "")
	f.Add("", "1700000000000")
	f.Add("2h", "12345")
	f.Add("-5s", "-1")
	f.Add("banana", "banana")
	f.Add("1h1ns", "9223372036854775807")
	f.Add("0", "0")
	now := time.UnixMilli(1_700_000_000_000)
	f.Fuzz(func(t *testing.T, timeout, header string) {
		r := httptest.NewRequest(http.MethodGet, "/pair", nil)
		if timeout != "" {
			q := r.URL.Query()
			q.Set("timeout", timeout)
			r.URL.RawQuery = q.Encode()
		}
		if header != "" {
			r.Header.Set(DeadlineHeader, header)
		}
		dl, ok, err := ParseDeadline(r, now) // must never panic
		if err != nil {
			if ok {
				t.Fatal("error with ok=true")
			}
			return
		}
		if ok != (timeout != "" || header != "") {
			t.Fatalf("ok = %v with timeout=%q header=%q", ok, timeout, header)
		}
		if !ok && !dl.IsZero() {
			t.Fatalf("non-zero deadline %v without ok", dl)
		}
		// A parsed relative timeout bounds the result (the header can only
		// pull the effective deadline EARLIER, never extend it).
		if d, perr := time.ParseDuration(timeout); timeout != "" && perr == nil && d > 0 {
			if dl.After(now.Add(maxTimeout)) {
				t.Fatalf("deadline %v beyond the %v cap", dl, maxTimeout)
			}
		}
	})
}

// TestDeadlineEndpoint drives the deadline middleware through the HTTP
// surface: malformed values reject 400, an already-expired deadline
// answers 504 without computing, and a deadline expiring mid-computation
// surfaces as 504 with the counter incremented.
func TestDeadlineEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheSize: -1})

	var e ErrorBody
	getJSON(t, ts, "/pair?i=1&j=2&timeout=banana", http.StatusBadRequest, &e)
	if !strings.Contains(e.Error, "timeout") {
		t.Fatalf("malformed timeout error = %q", e.Error)
	}

	// Expired on arrival: 504 before any computation.
	before := srv.computes.Value()
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/pair?i=1&j=2", nil)
	req.Header.Set(DeadlineHeader, FormatDeadline(time.Now().Add(-time.Second)))
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: status %d, want 504", resp.StatusCode)
	}
	if srv.computes.Value() != before {
		t.Fatal("expired request still computed")
	}
	if srv.deadlineExceeded.Value() == 0 {
		t.Fatal("deadline_exceeded counter not incremented")
	}

	// A generous budget answers normally.
	var pr pairResponse
	getJSON(t, ts, "/pair?i=1&j=2&timeout=30s", http.StatusOK, &pr)

	// Mid-computation expiry: hold the computation past the deadline; the
	// kernel's context check turns it into a 504.
	srv.testComputeHook = func(context.Context, string) { time.Sleep(80 * time.Millisecond) }
	defer func() { srv.testComputeHook = nil }()
	count := srv.deadlineExceeded.Value()
	getJSON(t, ts, "/pair?i=3&j=4&epsilon=0.02&delta=0.1&timeout=30ms", http.StatusGatewayTimeout, &e)
	if srv.deadlineExceeded.Value() != count+1 {
		t.Fatal("mid-computation expiry not counted")
	}
}

// TestDeadlineMidCompute: on every estimator arm — Monte Carlo and the
// linearized engine (pair and source each), and a 512-pair fixed batch — a
// deadline that expires while a computation is held open answers 504
// (counted, never a 500), leaves nothing in the cache under the key that
// failed, and does not fail a follower: a request with a live context
// that coalesced onto the doomed flight must not inherit its LEADER's
// context error — it retries once as the new leader and answers 200.
func TestDeadlineMidCompute(t *testing.T) {
	batch := make([]string, 512)
	for n := range batch {
		batch[n] = fmt.Sprintf("[%d,%d]", n%250, 250+n%50)
	}
	cases := []struct {
		name, leader, body string // body != "": POST it to leader
		follower, key      string
	}{
		{name: "mc pair", leader: "/pair?i=3&j=4", follower: "/pair?i=4&j=3", key: "g0/p/3/4"},
		{name: "lin pair", leader: "/pair?i=3&j=4&backend=lin", follower: "/pair?i=4&j=3&backend=lin", key: "g0/p/3/4/b=lin"},
		{name: "mc source", leader: "/source?node=5&k=4", follower: "/source?node=5&k=4&epsilon=0", key: "g0/s/mc/4/5"},
		{name: "lin source", leader: "/source?node=5&k=4&backend=lin", follower: "/source?node=5&k=4&backend=lin", key: "g0/s/lin/4/5"},
		{name: "fixed batch", leader: "/pairs", body: `{"pairs":[` + strings.Join(batch, ",") + `]}`,
			follower: "/pair?i=7&j=257", key: "g0/p/7/257"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, ts := newTestServer(t, Config{Lin: linEngine(t), MaxInFlight: -1})
			entered := make(chan struct{})
			release := make(chan struct{})
			var once sync.Once
			srv.testComputeHook = func(ctx context.Context, key string) {
				if key == tc.key {
					once.Do(func() {
						close(entered)
						<-release
						// The runtime may deliver the expiry after the
						// deadline has passed on the wall clock; wait for
						// it, so the estimator's own check is what fails.
						<-ctx.Done()
					})
				}
			}
			deadline := time.Now().Add(150 * time.Millisecond)
			leaderStatus := make(chan int, 1)
			go func() {
				method, body := http.MethodGet, io.Reader(nil)
				if tc.body != "" {
					method, body = http.MethodPost, strings.NewReader(tc.body)
				}
				req, _ := http.NewRequest(method, ts.URL+tc.leader, body)
				req.Header.Set(DeadlineHeader, FormatDeadline(deadline))
				resp, err := ts.Client().Do(req)
				if err != nil {
					t.Error(err)
					leaderStatus <- 0
					return
				}
				resp.Body.Close()
				leaderStatus <- resp.StatusCode
			}()
			<-entered

			followerStatus := make(chan int, 1)
			go func() {
				resp, err := ts.Client().Get(ts.URL + tc.follower)
				if err != nil {
					t.Error(err)
					followerStatus <- 0
					return
				}
				resp.Body.Close()
				followerStatus <- resp.StatusCode
			}()
			for wait := time.Now().Add(5 * time.Second); srv.flight.pendingWaiters(tc.key) == 0; {
				if time.Now().After(wait) {
					t.Fatal("follower never joined the flight")
				}
				time.Sleep(time.Millisecond)
			}
			// Let the leader's deadline pass while its computation is
			// held, then let it run into the estimator's context check.
			time.Sleep(time.Until(deadline) + 5*time.Millisecond)
			before := srv.deadlineExceeded.Value()
			close(release)

			if got := <-leaderStatus; got != http.StatusGatewayTimeout {
				t.Fatalf("leader past its deadline: status %d, want 504", got)
			}
			if srv.deadlineExceeded.Value() != before+1 {
				t.Fatal("mid-computation expiry not counted")
			}
			if got := <-followerStatus; got != http.StatusOK {
				t.Fatalf("follower with a live context: status %d, want 200 (retry as leader)", got)
			}
			// The failed flight cached nothing: the entry now under the key
			// is the follower's own retry, computed exactly once more.
			if _, ok := srv.cache.Get(tc.key); !ok {
				t.Fatal("follower's retry did not land in the cache")
			}
		})
	}
}

// TestDeadlineFailureCachesNothing: a computation that dies of its
// deadline leaves no cache entry behind, on either backend and for every
// pair of a fixed batch.
func TestDeadlineFailureCachesNothing(t *testing.T) {
	srv, ts := newTestServer(t, Config{Lin: linEngine(t)})
	srv.testComputeHook = func(context.Context, string) { time.Sleep(60 * time.Millisecond) }
	getJSON(t, ts, "/pair?i=3&j=4&backend=lin&timeout=20ms", http.StatusGatewayTimeout, nil)
	getJSON(t, ts, "/source?node=3&backend=lin&timeout=20ms", http.StatusGatewayTimeout, nil)
	getJSON(t, ts, "/source?node=3&timeout=20ms", http.StatusGatewayTimeout, nil)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/pairs?timeout=20ms",
		strings.NewReader(`{"pairs":[[1,2],[3,4],[5,6],[7,8]]}`))
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("batch past its deadline: status %d, want 504", resp.StatusCode)
	}
	if n := srv.cache.Len(); n != 0 {
		t.Fatalf("%d cache entries after four failed requests, want 0", n)
	}
}

// TestLinRebuildAfterRefresh (dynamic serving): a hot-swap drops the lin
// engine, the background re-solve re-provisions it with the options of
// the engine that was serving, without blocking the swap, and /healthz
// reports the window as lin_rebuilding.
func TestLinRebuildAfterRefresh(t *testing.T) {
	opts := linserve.DefaultOptions()
	opts.T = 4
	opts.Sweeps = 6
	srv, ts := newSwapServer(t, opts)
	var rebuilds atomic.Int32
	srv.testRebuildHook = func(uint64) { rebuilds.Add(1) }

	postJSON(t, ts, "/edges", `{"insert":[[0,7],[9,11]]}`, http.StatusOK, nil)
	var rr refreshResponse
	postJSON(t, ts, "/refresh?wait=1", "", http.StatusOK, &rr)
	if !rr.Swapped {
		t.Fatal("refresh did not swap")
	}

	// The swap returned while the re-solve runs in the background; wait
	// for the engine to flip in and the window to close.
	var hz healthzResponse
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		hz = healthzResponse{} // lin_rebuilding is omitted when false
		getJSON(t, ts, "/healthz", http.StatusOK, &hz)
		if hasLin(hz) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lin engine never rebuilt after the hot-swap (healthz %+v)", hz)
		}
	}
	if hz.LinRebuilding {
		t.Fatal("healthz still reports lin_rebuilding after the flip")
	}
	snap := srv.snaps.Load()
	if snap.Gen != rr.Gen {
		t.Fatalf("engine flipped into gen %d, want %d", snap.Gen, rr.Gen)
	}
	if got := snap.Lin.Options(); got != opts {
		t.Fatalf("re-solved engine options %+v, want the serving engine's %+v", got, opts)
	}
	if snap.Lin.Graph() != snap.Q.Graph() {
		t.Fatal("re-solved engine is not bound to the swapped-in graph")
	}
	if n := rebuilds.Load(); n != 1 {
		t.Fatalf("rebuild ran %d times, want 1", n)
	}
	// The rebuilt engine answers explicit lin requests at the new gen.
	var pr pairResponse
	getJSON(t, ts, "/pair?i=0&j=7&backend=lin", http.StatusOK, &pr)
	if pr.Backend != BackendLin || pr.Gen != rr.Gen {
		t.Fatalf("lin answer backend=%q gen=%d, want lin at gen %d", pr.Backend, pr.Gen, rr.Gen)
	}
}

// TestSetLinGenGuard: a re-solve overtaken by another hot-swap (or
// racing a second re-solve) must be discarded, never bound to the wrong
// snapshot.
func TestSetLinGenGuard(t *testing.T) {
	q := querier(t)
	srv, err := New(q, Config{InitialGen: 7})
	if err != nil {
		t.Fatal(err)
	}
	eng := new(linserve.Engine)
	if srv.setLin(6, eng) {
		t.Fatal("setLin attached an engine to the wrong generation")
	}
	if !srv.setLin(7, eng) {
		t.Fatal("setLin refused the matching generation")
	}
	if srv.snaps.Load().Lin != eng {
		t.Fatal("engine not visible after flip")
	}
	if srv.setLin(7, new(linserve.Engine)) {
		t.Fatal("setLin replaced an engine already in place")
	}
	srv.snaps.Store(&Snapshot{Gen: 8, Q: q})
	if srv.setLin(7, eng) {
		t.Fatal("setLin attached a stale rebuild after a swap")
	}
}
