// Package chaos is CloudWalker's fault-injection layer: a deterministic
// decision engine (Injector) that turns a seeded RNG stream and a
// runtime-swappable fault plan into per-request fault decisions, plus two
// delivery mechanisms — an HTTP-aware TCP proxy (proxy.go) that sits in
// front of a real shard process and damages its traffic at the transport
// level (latency, errors, connection resets, slow-loris dribble,
// truncation, refused connections), and an in-process http.Handler
// middleware for tests that run the server in the same process.
//
// Determinism is the point: the Injector draws every decision from one
// xrand stream under a mutex, so a fixed seed and a fixed request order
// reproduce the same fault sequence — a failing chaos test replays.
// Plans are swapped atomically at runtime (Set / SetDown), so a test can
// brown a shard out, assert the fleet degrades, clear the fault, and
// assert recovery, all against one proxy.
package chaos

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"cloudwalker/internal/xrand"
)

// Fault is one fault plan: what the injector may do to each request.
// Rates are independent probabilities in [0,1] sampled per request; zero
// values injure nothing. A plan is immutable once installed — build a new
// one and Set it to change behavior.
type Fault struct {
	// Latency is added to every request before any other fault; Jitter
	// adds a uniform extra in [0, Jitter).
	Latency time.Duration
	Jitter  time.Duration
	// ErrorRate answers the request with a canned 500 without touching
	// the backend.
	ErrorRate float64
	// ResetRate kills the client connection abruptly (RST where the
	// transport allows it) — the "shard crashed mid-request" case.
	ResetRate float64
	// TruncateRate forwards the backend's response headers but cuts the
	// body short and drops the connection — the torn-response case.
	TruncateRate float64
	// DribbleRate relays the full response but slow-loris style:
	// DribbleChunk bytes (default 1) every DribbleDelay (default 10ms).
	DribbleRate  float64
	DribbleChunk int
	DribbleDelay time.Duration
	// Down refuses every request outright: the proxy closes accepted
	// connections immediately, the middleware hijacks and drops. The
	// crash/restart schedule of a chaos script is Set({Down:true}) /
	// Set({Down:false}) transitions.
	Down bool
}

// Decision is the injector's verdict for one request, in the order the
// delivery layer applies it: Down refuses outright; otherwise sleep
// Delay, then at most one of Error / Reset fires before the backend is
// consulted, and at most one of Truncate / Dribble shapes the relay.
type Decision struct {
	Delay    time.Duration
	Down     bool
	Error    bool
	Reset    bool
	Truncate bool
	Dribble  bool
}

// Injector makes deterministic fault decisions from a seeded stream.
// Safe for concurrent use; concurrent requests serialize through the
// decision mutex, so the fault sequence depends only on arrival order.
type Injector struct {
	mu    sync.Mutex
	src   *xrand.Source
	fault atomic.Pointer[Fault]
}

// NewInjector returns an injector drawing from the given seed with an
// empty (harmless) fault plan installed.
func NewInjector(seed uint64) *Injector {
	in := &Injector{src: xrand.NewStream(seed, 0)}
	in.fault.Store(&Fault{})
	return in
}

// Set atomically installs a new fault plan; in-flight requests keep the
// decision they already drew.
func (in *Injector) Set(f Fault) { in.fault.Store(&f) }

// Fault returns the currently installed plan.
func (in *Injector) Fault() Fault { return *in.fault.Load() }

// SetDown flips only the Down bit of the current plan, keeping the rest —
// the crash/restart toggle of a chaos schedule.
func (in *Injector) SetDown(down bool) {
	f := *in.fault.Load()
	f.Down = down
	in.fault.Store(&f)
}

// Decide draws the fault decision for the next request. Every sample
// position is consumed unconditionally (one per rate plus the jitter
// draw), so the decision sequence for a seed is identical regardless of
// which rates the current plan sets — flipping a plan mid-test does not
// reshuffle the faults later requests would have drawn.
func (in *Injector) Decide() Decision {
	f := in.fault.Load()
	in.mu.Lock()
	jitter := in.src.Float64()
	uErr := in.src.Float64()
	uReset := in.src.Float64()
	uTrunc := in.src.Float64()
	uDribble := in.src.Float64()
	in.mu.Unlock()
	d := Decision{Delay: f.Latency, Down: f.Down}
	if f.Jitter > 0 {
		d.Delay += time.Duration(jitter * float64(f.Jitter))
	}
	d.Error = uErr < f.ErrorRate
	d.Reset = uReset < f.ResetRate
	d.Truncate = uTrunc < f.TruncateRate
	d.Dribble = uDribble < f.DribbleRate
	return d
}

// dribbleParams resolves the plan's dribble shape with defaults.
func dribbleParams(f Fault) (chunk int, delay time.Duration) {
	chunk, delay = f.DribbleChunk, f.DribbleDelay
	if chunk <= 0 {
		chunk = 1
	}
	if delay <= 0 {
		delay = 10 * time.Millisecond
	}
	return chunk, delay
}

// Handler wraps next with in-process fault injection: the subset of
// faults that make sense without a transport in between. Latency and
// errors behave exactly like the proxy; Down and Reset both surface as a
// dropped connection (hijack + close) — in-process there is no RST to
// send. Truncate cuts the response body via a hijacked raw write;
// Dribble is transport-level pacing and is only meaningful through the
// proxy, so the middleware ignores it.
func (in *Injector) Handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d := in.Decide()
		if d.Delay > 0 {
			time.Sleep(d.Delay)
		}
		if d.Down || d.Reset {
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
					return
				}
			}
			// No hijack support (e.g. HTTP/2 recorder): a 502 with no body
			// is the closest observable effect.
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		if d.Error {
			http.Error(w, "chaos: injected error", http.StatusInternalServerError)
			return
		}
		if d.Truncate {
			rec := newTruncatingWriter(w)
			next.ServeHTTP(rec, r)
			rec.finish()
			return
		}
		next.ServeHTTP(w, r)
	})
}

// truncatingWriter buffers a response and, at finish, emits headers that
// promise the full body while writing only half of it, then kills the
// connection — the client observes an unexpected EOF mid-body.
type truncatingWriter struct {
	w      http.ResponseWriter
	status int
	body   []byte
}

func newTruncatingWriter(w http.ResponseWriter) *truncatingWriter {
	return &truncatingWriter{w: w, status: http.StatusOK}
}

func (t *truncatingWriter) Header() http.Header { return t.w.Header() }

func (t *truncatingWriter) WriteHeader(status int) { t.status = status }

func (t *truncatingWriter) Write(p []byte) (int, error) {
	t.body = append(t.body, p...)
	return len(p), nil
}

func (t *truncatingWriter) finish() {
	hj, ok := t.w.(http.Hijacker)
	if !ok {
		// Cannot tear the connection: deliver the intact response rather
		// than a different, well-formed fault.
		t.w.WriteHeader(t.status)
		t.w.Write(t.body)
		return
	}
	conn, buf, err := hj.Hijack()
	if err != nil {
		t.w.WriteHeader(t.status)
		t.w.Write(t.body)
		return
	}
	defer conn.Close()
	half := len(t.body) / 2
	writeRawResponse(buf, t.status, t.w.Header(), len(t.body), t.body[:half])
	buf.Flush()
}
