package linserve

import (
	"bytes"
	"testing"

	"cloudwalker/internal/gen"
)

// FuzzLinCodec drives the CWLN section decoder with arbitrary bytes: it
// must never panic or over-allocate, and anything it accepts must be a
// structurally valid engine (diagonal in range, queries answerable).
// Seeds include a canonical valid encoding so the fuzzer mutates from
// real structure, not just random headers, and the same encoding with a
// non-zero rank word, which must be refused.
func FuzzLinCodec(f *testing.F) {
	g, err := gen.RMAT(24, 96, gen.DefaultRMAT, 41)
	if err != nil {
		f.Fatalf("RMAT: %v", err)
	}
	opts := DefaultOptions()
	opts.T = 5
	seed, err := Build(g, opts)
	if err != nil {
		f.Fatalf("Build: %v", err)
	}
	var buf bytes.Buffer
	if err := seed.Save(&buf); err != nil {
		f.Fatalf("Save: %v", err)
	}
	f.Add(buf.Bytes())
	ranked := withRank(buf.Bytes(), 6)
	if _, err := Load(bytes.NewReader(ranked), g); err == nil {
		f.Fatal("a rank-6 section was accepted")
	}
	f.Add(ranked)
	f.Add([]byte{})
	f.Add([]byte{0x4e, 0x4c, 0x57, 0x43})

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Load(bytes.NewReader(data), g)
		if err != nil {
			return
		}
		for i, d := range e.Diag() {
			if !(d >= 0 && d <= 1) {
				t.Fatalf("accepted engine has diag[%d] = %g outside [0,1]", i, d)
			}
		}
		if s, err := e.SinglePair(0, 1); err != nil || !(s >= 0 && s <= 1) {
			t.Fatalf("accepted engine cannot answer: s=%g err=%v", s, err)
		}
		var rt bytes.Buffer
		if err := e.Save(&rt); err != nil {
			t.Fatalf("accepted engine cannot re-save: %v", err)
		}
		if _, err := Load(bytes.NewReader(rt.Bytes()), g); err != nil {
			t.Fatalf("re-saved engine does not load: %v", err)
		}
	})
}
