package server

import (
	"time"

	"cloudwalker/internal/metrics"
)

// latWindow is the per-endpoint sample window /stats quantiles cover.
const latWindow = 2048

// LatencyStats reports request count and latency quantiles (milliseconds)
// over an endpoint's window of recent requests.
type LatencyStats struct {
	Count uint64  `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
}

func latencyStats(w *metrics.Window) LatencyStats {
	ms := func(p float64) float64 { return float64(w.Quantile(p)) / float64(time.Millisecond) }
	return LatencyStats{Count: w.Count(), P50Ms: ms(0.50), P90Ms: ms(0.90), P99Ms: ms(0.99)}
}
