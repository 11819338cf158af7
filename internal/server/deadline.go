package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"cloudwalker/internal/metrics"
)

// Request deadlines. A client (or the fleet router acting for one) can
// bound a query two ways:
//
//   - `timeout=DURATION` query parameter (Go duration syntax, e.g.
//     `timeout=250ms`) — a relative budget starting when the server
//     parses the request;
//   - `X-Cloudwalker-Deadline` header — an absolute wall-clock deadline
//     in Unix milliseconds, which survives multi-hop forwarding without
//     restarting the clock (the router stamps it on shard attempts so a
//     shard never works past the client's remaining budget).
//
// When both are present the earlier deadline wins. The deadline is
// attached to the request context; walk kernels check it at wave
// boundaries, so a query whose client has given up stops burning walker
// steps mid-computation. An already-expired deadline answers 504
// immediately, counted by cloudwalker_deadline_exceeded_total.

// DeadlineHeader carries an absolute request deadline in Unix
// milliseconds. See ParseDeadline.
const DeadlineHeader = "X-Cloudwalker-Deadline"

// maxTimeout caps the accepted relative timeout: anything longer is a
// client bug (or an attack keeping contexts alive), not a real budget.
const maxTimeout = time.Hour

// ParseDeadline extracts the request deadline from the timeout= query
// parameter and/or the DeadlineHeader, relative to now. It returns the
// earliest deadline and ok=true when one was specified; a malformed value
// is an error (the request should be rejected 400, not silently
// unbounded).
func ParseDeadline(r *http.Request, now time.Time) (time.Time, bool, error) {
	var deadline time.Time
	ok := false
	if raw := r.URL.Query().Get("timeout"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil {
			return time.Time{}, false, fmt.Errorf("parameter \"timeout\": %q is not a duration", raw)
		}
		if d <= 0 {
			return time.Time{}, false, fmt.Errorf("parameter \"timeout\": %q must be positive", raw)
		}
		if d > maxTimeout {
			d = maxTimeout
		}
		deadline, ok = now.Add(d), true
	}
	if raw := r.Header.Get(DeadlineHeader); raw != "" {
		ms, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || ms <= 0 {
			return time.Time{}, false, fmt.Errorf("header %s: %q is not a Unix-millisecond timestamp", DeadlineHeader, raw)
		}
		abs := time.UnixMilli(ms)
		if !ok || abs.Before(deadline) {
			deadline = abs
		}
		ok = true
	}
	return deadline, ok, nil
}

// FormatDeadline renders a deadline for the DeadlineHeader.
func FormatDeadline(t time.Time) string {
	return strconv.FormatInt(t.UnixMilli(), 10)
}

// Admit is the request prologue of every endpoint that takes a method, a
// deadline or a body — a shard's (gated, /edges, /refresh, /snapshot) and
// the fleet router's route table alike — so a request is refused with the
// same status and words wherever it lands:
//
//   - a method other than method: 405 with an Allow header;
//   - a malformed timeout= or DeadlineHeader: 400; a deadline already past:
//     504, counted in expired; otherwise the deadline goes on the context;
//   - with maxBody > 0, a body over maxBody bytes: 413.
//
// h then runs with the deadline-carrying request and the body (nil when
// maxBody <= 0).
func Admit(method string, maxBody int64, expired *metrics.Counter, h func(http.ResponseWriter, *http.Request, []byte)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			w.Header().Set("Allow", method)
			WriteError(w, http.StatusMethodNotAllowed, "method %s not allowed on %s", r.Method, r.URL.Path)
			return
		}
		// An already-expired deadline answers before the request consumes
		// anything — under overload, shedding doomed work is the whole
		// point of propagating deadlines.
		now := time.Now()
		dl, ok, err := ParseDeadline(r, now)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if ok {
			if !dl.After(now) {
				expired.Inc()
				WriteError(w, http.StatusGatewayTimeout, "deadline already expired on arrival")
				return
			}
			ctx, cancel := context.WithDeadline(r.Context(), dl)
			defer cancel()
			r = r.WithContext(ctx)
		}
		var body []byte
		if maxBody > 0 {
			if body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody)); err != nil {
				var tooBig *http.MaxBytesError
				if errors.As(err, &tooBig) {
					// No limit in the words: a router and a shard
					// refuse the same body with the same text whatever
					// each one's limit is.
					WriteError(w, http.StatusRequestEntityTooLarge, "request body too large")
				} else {
					WriteError(w, http.StatusBadRequest, "reading body: %v", err)
				}
				return
			}
		}
		h(w, r, body)
	}
}
