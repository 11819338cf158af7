// Snapshot persistence: the serving state (graph CSR + diagonal index +
// optional linearized engine + generation) written to disk as one file,
// so a restarted daemon resumes serving bit-identical answers without
// re-running BuildIndex. The index IS the expensive artifact — the
// paper's offline stage is hours of walking — and in dynamic mode every
// compaction discards the previous one, so without persistence a crash
// loses all post-startup rebuilds.
//
// File format ("CWSN", little-endian):
//
//	uint32 magic "CWSN"   uint32 version
//	uint64 flags          (bit0: a top-k store section follows the index;
//	                       bit1: a linearized-engine section follows it;
//	                       any other bit is refused)
//	uint64 generation
//	sections, each:  uint64 byteLength + payload
//	    graph   (graph.WriteBinary)
//	    index   (core.Index.Save — includes the walk Options)
//	    store   (only when flags bit0 is set)
//	    lin     (linserve.Engine.Save; only when flags bit1 is set)
//	uint32 crc32(IEEE) over everything above
//
// The store section held a precomputed all-pair top-k list that the
// daemon no longer serves. Files that carry one still restore: the
// section is skipped by its length prefix, unread, and bit0 stays
// reserved for it. Nothing writes it any more.
//
// Sections are length-prefixed because the inner codecs wrap their
// reader in bufio and over-read past their own frame; each section is
// decoded from its own exactly-sized buffer instead. Writes go to a temp
// file in the target directory followed by rename, so a crash mid-write
// leaves the previous snapshot intact and a reader can never observe a
// half-written file.

package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net/http"
	"os"
	"path/filepath"

	"cloudwalker/internal/core"
	"cloudwalker/internal/graph"
	"cloudwalker/internal/linserve"
)

const (
	snapshotMagic        = 0x4357534e // "CWSN"
	snapshotVersion      = 1
	snapshotFlagHasStore = 1 << 0 // reserved: read past, never written
	snapshotFlagHasLin   = 1 << 1
)

// SnapshotFileName is the file a snapshot directory holds; one directory
// persists one serving snapshot (saves replace it atomically).
const SnapshotFileName = "serving.cwsn"

// SnapshotPath returns the snapshot file path under dir.
func SnapshotPath(dir string) string {
	return filepath.Join(dir, SnapshotFileName)
}

// WriteSnapshot persists snap atomically into dir (temp file + rename).
// It returns the byte size written.
func WriteSnapshot(dir string, snap *Snapshot) (int64, error) {
	var g, idx bytes.Buffer
	if err := graph.WriteBinary(&g, snap.Q.Graph()); err != nil {
		return 0, fmt.Errorf("server: snapshot graph: %w", err)
	}
	if err := snap.Q.Index().Save(&idx); err != nil {
		return 0, fmt.Errorf("server: snapshot index: %w", err)
	}
	sections := [][]byte{g.Bytes(), idx.Bytes()}
	var flags uint64
	if snap.Lin != nil {
		// The diagonal solve is prep-time work on par with the walk index;
		// persisting it means a restart serves backend=lin immediately
		// instead of re-solving.
		var lin bytes.Buffer
		if err := snap.Lin.Save(&lin); err != nil {
			return 0, fmt.Errorf("server: snapshot lin engine: %w", err)
		}
		sections = append(sections, lin.Bytes())
		flags |= snapshotFlagHasLin
	}
	image := encodeSnapshot(flags, snap.Gen, sections...)

	tmp, err := os.CreateTemp(dir, SnapshotFileName+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("server: snapshot temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(image); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("server: snapshot write: %w", err)
	}
	// Sync before rename: the rename must not become durable ahead of the
	// data or a crash could leave a complete-looking file of garbage.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("server: snapshot sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return 0, fmt.Errorf("server: snapshot close: %w", err)
	}
	if err := os.Rename(tmp.Name(), SnapshotPath(dir)); err != nil {
		return 0, fmt.Errorf("server: snapshot rename: %w", err)
	}
	return int64(len(image)), nil
}

// encodeSnapshot frames sections into one file image: header, each
// section behind its length, crc32 trailer.
func encodeSnapshot(flags, gen uint64, sections ...[]byte) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, snapshotMagic)
	b = le.AppendUint32(b, snapshotVersion)
	b = le.AppendUint64(b, flags)
	b = le.AppendUint64(b, gen)
	for _, sec := range sections {
		b = le.AppendUint64(b, uint64(len(sec)))
		b = append(b, sec...)
	}
	return le.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// ReadSnapshot loads and verifies the snapshot file under dir and binds
// its graph and index into the serving Snapshot they were saved from.
func ReadSnapshot(dir string) (*Snapshot, error) {
	raw, err := os.ReadFile(SnapshotPath(dir))
	if err != nil {
		return nil, err
	}
	return decodeSnapshot(raw)
}

// decodeSnapshot parses and validates one snapshot file image. Split
// from ReadSnapshot so the decoder is fuzzable without a filesystem.
// The crc32 trailer is verified before any section is parsed, so
// corrupt input is rejected in O(len) without large allocations.
func decodeSnapshot(raw []byte) (*Snapshot, error) {
	le := binary.LittleEndian
	if len(raw) < 24+4 {
		return nil, fmt.Errorf("server: snapshot truncated (%d bytes)", len(raw))
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if got, want := crc32.ChecksumIEEE(body), le.Uint32(tail); got != want {
		return nil, fmt.Errorf("server: snapshot checksum mismatch (file %#x, computed %#x)", want, got)
	}
	if m := le.Uint32(body[0:4]); m != snapshotMagic {
		return nil, fmt.Errorf("server: bad snapshot magic %#x", m)
	}
	if v := le.Uint32(body[4:8]); v != snapshotVersion {
		return nil, fmt.Errorf("server: unsupported snapshot version %d", v)
	}
	flags := le.Uint64(body[8:16])
	if unknown := flags &^ (snapshotFlagHasStore | snapshotFlagHasLin); unknown != 0 {
		return nil, fmt.Errorf("server: snapshot has unknown flag bits %#x", unknown)
	}
	ps := &Snapshot{Gen: le.Uint64(body[16:24])}
	rest := body[24:]
	next := func(what string) ([]byte, error) {
		if len(rest) < 8 {
			return nil, fmt.Errorf("server: snapshot truncated before %s section", what)
		}
		n := le.Uint64(rest[:8])
		rest = rest[8:]
		if uint64(len(rest)) < n {
			return nil, fmt.Errorf("server: snapshot %s section truncated (%d of %d bytes)", what, len(rest), n)
		}
		sec := rest[:n]
		rest = rest[n:]
		return sec, nil
	}
	gsec, err := next("graph")
	if err != nil {
		return nil, err
	}
	g, err := graph.ReadBinary(bytes.NewReader(gsec))
	if err != nil {
		return nil, fmt.Errorf("server: snapshot graph: %w", err)
	}
	isec, err := next("index")
	if err != nil {
		return nil, err
	}
	idx, err := core.ReadIndex(bytes.NewReader(isec))
	if err != nil {
		return nil, fmt.Errorf("server: snapshot index: %w", err)
	}
	if ps.Q, err = core.NewQuerier(g, idx); err != nil {
		return nil, fmt.Errorf("server: snapshot index: %w", err)
	}
	if flags&snapshotFlagHasStore != 0 {
		if _, err := next("store"); err != nil {
			return nil, err
		}
	}
	if flags&snapshotFlagHasLin != 0 {
		lsec, err := next("lin")
		if err != nil {
			return nil, err
		}
		// Binding against the graph decoded above validates the engine's
		// node count; linserve.Load checks the rest (options, diagonal
		// range, no low-rank factors).
		if ps.Lin, err = linserve.Load(bytes.NewReader(lsec), g); err != nil {
			return nil, fmt.Errorf("server: snapshot lin engine: %w", err)
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("server: snapshot has %d trailing bytes", len(rest))
	}
	return ps, nil
}

// snapshotResponse is the POST /snapshot reply.
type snapshotResponse struct {
	Saved bool   `json:"saved"`
	Gen   uint64 `json:"gen"`
	Path  string `json:"path"`
	Bytes int64  `json:"bytes"`
}

// handleSnapshot persists the CURRENT serving snapshot (the one queries
// run against — pending edits are not included; POST
// /refresh?wait=1 first to fold them in).
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request, _ []byte) {
	if s.snapDir == "" {
		WriteError(w, http.StatusServiceUnavailable, "snapshot persistence disabled (start the daemon with -snapshot)")
		return
	}
	snap := s.snaps.Load()
	size, err := WriteSnapshot(s.snapDir, snap)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.snapSaves.Inc()
	setGen(w, snap.Gen)
	WriteJSON(w, snapshotResponse{Saved: true, Gen: snap.Gen, Path: SnapshotPath(s.snapDir), Bytes: size})
}
