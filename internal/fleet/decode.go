package fleet

import (
	"encoding/json"
	"fmt"

	"cloudwalker/internal/core"
)

// Shard response decoding. The router never trusts a shard's bytes: every
// 200 it relays passes through these decoders first, and a malformed or
// truncated body is treated like a failed shard — the router fails over
// to the next replica and answers 502 only when no replica produces a
// well-formed response. The FuzzDecodeShardResponse target pins the
// "clean error, never a panic" contract.

// pairBody is the wire shape of a shard's /pair response.
type pairBody struct {
	I      int     `json:"i"`
	J      int     `json:"j"`
	Score  float64 `json:"score"`
	Cached bool    `json:"cached"`
	Gen    uint64  `json:"gen"`
}

// decodePairBody parses and validates a shard /pair body.
func decodePairBody(b []byte) (pairBody, error) {
	var p pairBody
	if err := json.Unmarshal(b, &p); err != nil {
		return pairBody{}, fmt.Errorf("fleet: bad /pair body from shard: %w", err)
	}
	// SimRank scores are clamped to [0,1] by the estimator; anything else
	// is a corrupt or impostor shard. NaN cannot survive json.Unmarshal,
	// so these two comparisons are a complete range check.
	if !(p.Score >= 0 && p.Score <= 1) {
		return pairBody{}, fmt.Errorf("fleet: shard /pair score %v outside [0,1]", p.Score)
	}
	return p, nil
}

// pairsBody is the wire shape of a shard's /pairs response.
type pairsBody struct {
	Scores []float64 `json:"scores"`
	Hits   int       `json:"cache_hits"`
	Gen    uint64    `json:"gen"`
}

// decodePairsBody parses and validates a shard /pairs body. want is the
// request's pair count; a shard answering a different number of scores is
// corrupt.
func decodePairsBody(b []byte, want int) (pairsBody, error) {
	var p pairsBody
	if err := json.Unmarshal(b, &p); err != nil {
		return pairsBody{}, fmt.Errorf("fleet: bad /pairs body from shard: %w", err)
	}
	if want >= 0 && len(p.Scores) != want {
		return pairsBody{}, fmt.Errorf("fleet: shard /pairs returned %d scores for %d pairs", len(p.Scores), want)
	}
	for _, s := range p.Scores {
		if !(s >= 0 && s <= 1) {
			return pairsBody{}, fmt.Errorf("fleet: shard /pairs score %v outside [0,1]", s)
		}
	}
	return p, nil
}

// sourceBody is the wire shape of a shard's /source response.
type sourceBody struct {
	Node    int             `json:"node"`
	K       int             `json:"k"`
	Gen     uint64          `json:"gen"`
	Results []core.Neighbor `json:"results"`
}

// decodeSourceBody parses and validates a shard /source body.
func decodeSourceBody(b []byte) (*sourceBody, error) {
	var s sourceBody
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("fleet: bad /source body from shard: %w", err)
	}
	if s.K < 0 || len(s.Results) > s.K {
		return nil, fmt.Errorf("fleet: shard /source returned %d results for k=%d", len(s.Results), s.K)
	}
	for _, nb := range s.Results {
		if nb.Node < 0 {
			return nil, fmt.Errorf("fleet: shard /source result node %d negative", nb.Node)
		}
		if !(nb.Score >= 0 && nb.Score <= 1) {
			return nil, fmt.Errorf("fleet: shard /source score %v outside [0,1]", nb.Score)
		}
	}
	return &s, nil
}
