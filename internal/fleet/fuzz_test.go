package fleet

import (
	"testing"
)

// FuzzDecodeShardResponse pins the router's shard-response decoding
// contract: arbitrary bytes from a shard (malformed JSON, truncated
// bodies, hostile values) must come back as a clean error — never a
// panic — so the router can treat a corrupt shard like a dead one and
// fail over. All three decoders chew on the same input; a crash in any
// of them is a routing-tier outage.
func FuzzDecodeShardResponse(f *testing.F) {
	seeds := []string{
		// Well-formed bodies of each shape. The "mode" field is what shards
		// sent before /source had one estimator; it must still decode.
		`{"i":1,"j":2,"score":0.25,"cached":true,"gen":3}`,
		`{"scores":[0.1,0.9,0],"cache_hits":2,"gen":7}`,
		`{"node":4,"mode":"walk","k":3,"gen":1,"results":[{"node":9,"score":0.5},{"node":2,"score":0.5}]}`,
		`{"node":4,"mode":"pull","k":2,"part":"1/3","gen":0,"results":[]}`,
		`{"node":4,"k":2,"results":[{"node":9,"score":0.5},{"node":2,"score":0.25}]}`, // no mode or gen
		// What a shard sends today; the router decodes it on every relayed
		// /source.
		`{"node":4,"k":3,"cached":false,"gen":2,"backend":"mc","results":[{"node":9,"score":0.5}]}`,
		`{"node":4,"k":3,"part":"1/3","cached":true,"gen":0,"backend":"lin","results":[]}`,
		`{"node":4,"k":1,"cached":false,"gen":7,"backend":"mc","results":[{"node":4,"score":1}]}`,
		// Truncations and structural garbage.
		`{"i":1,"j":2,"sco`,
		`{"results":[{"node":`,
		``,
		`null`,
		`[]`,
		`"just a string"`,
		`{}`,
		// Hostile values the validators must reject without panicking.
		`{"score":1e308}`,
		`{"score":-1}`,
		`{"scores":[2]}`,
		`{"scores":null,"gen":18446744073709551615}`,
		`{"k":-1,"results":[]}`,
		`{"k":0,"results":[{"node":1,"score":0.5}]}`,
		`{"k":2,"results":[{"node":-7,"score":0.5}]}`,
		`{"node":1.5}`,
		`{"i":99999999999999999999999999}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := decodePairBody(data); err == nil {
			if !(p.Score >= 0 && p.Score <= 1) {
				t.Fatalf("decodePairBody accepted out-of-range score %v", p.Score)
			}
		}
		if p, err := decodePairsBody(data, -1); err == nil {
			for _, s := range p.Scores {
				if !(s >= 0 && s <= 1) {
					t.Fatalf("decodePairsBody accepted out-of-range score %v", s)
				}
			}
		}
		if sb, err := decodeSourceBody(data); err == nil {
			if len(sb.Results) > sb.K {
				t.Fatalf("decodeSourceBody accepted %d results for k=%d", len(sb.Results), sb.K)
			}
			for _, nb := range sb.Results {
				if nb.Node < 0 || !(nb.Score >= 0 && nb.Score <= 1) {
					t.Fatalf("decodeSourceBody accepted invalid result %+v", nb)
				}
			}
		}
	})
}
