package livemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/frame"
	"repro/internal/sim"
	"repro/internal/storefault"
)

// Record is one entry in the time-series ring: a registry snapshot, an
// alert transition, a status-table diff, or a progress event, stamped
// with the virtual time it was published at. Records carry no wall
// clock: the ring of a seeded simulation is itself a deterministic
// artifact.
type Record struct {
	Seq   uint64          `json:"seq"`
	SimNs int64           `json:"sim_ns"`
	Kind  string          `json:"kind"`
	Data  json.RawMessage `json:"data,omitempty"`
}

// Record kinds written by the Server. Kind is an open string set — the
// ring itself treats records as opaque.
const (
	KindSnapshot = "snapshot"
	KindAlert    = "alert"
	KindStatus   = "status"
	KindProgress = "progress"
)

// Ring is a bounded append-only record log: rotated segment files on
// disk (lines framed by internal/frame) mirrored by an in-memory copy
// that queries and SSE replay read from.
// It is not internally synchronized — the owning Server serializes all
// access under its own lock.
//
// On-disk layout under the ring directory:
//
//	seg-00000000.jsonl   oldest retained segment
//	seg-00000007.jsonl   active segment, one framed JSON record per line
//
// When the active segment exceeds the byte budget a new one starts; the
// oldest is deleted once the segment count exceeds the cap. A torn tail
// on the newest segment (the process died mid-write) is truncated away
// on open under internal/frame's torn-tail rule; everything before it
// is recovered.
type Ring struct {
	dir      string // "" = memory-only (no files, same bounds)
	fs       storefault.FS
	segBytes int64
	maxSegs  int

	app     *frame.Appender
	line    []byte // framed-line scratch
	segIdx  int    // index of the active segment
	segSize int64  // bytes written to the active segment

	recs []memRec
	next uint64

	// recoveredSimNs is the newest record timestamp found on open.
	// Appends strictly older than it are suppressed: a resumed campaign
	// replays its history from t=0, and the ring already holds it.
	recoveredSimNs int64
	recovered      int
	pruned         int // PruneAggressive invocations (ENOSPC degradation)

	err error // first I/O error; the ring keeps serving from memory
}

type memRec struct {
	Record
	seg int
}

const (
	defaultSegmentBytes = 1 << 20
	defaultMaxSegments  = 8
)

// OpenRing opens (or creates) a ring in dir. An empty dir keeps the
// ring purely in memory with the same retention bounds. segBytes and
// maxSegs of zero take the defaults (1 MiB × 8 segments).
func OpenRing(dir string, segBytes int64, maxSegs int) (*Ring, error) {
	return OpenRingFS(nil, dir, segBytes, maxSegs)
}

// OpenRingFS is OpenRing through an explicit filesystem seam (nil means
// the real disk) — the storage-chaos injection point.
func OpenRingFS(fsys storefault.FS, dir string, segBytes int64, maxSegs int) (*Ring, error) {
	if segBytes <= 0 {
		segBytes = defaultSegmentBytes
	}
	if maxSegs <= 0 {
		maxSegs = defaultMaxSegments
	}
	// Sequence numbers start at 1: an SSE client sending
	// Last-Event-ID: 0 therefore replays the whole retained backlog.
	r := &Ring{dir: dir, fs: storefault.Or(fsys), segBytes: segBytes, maxSegs: maxSegs, next: 1, recoveredSimNs: -1}
	if dir == "" {
		return r, nil
	}
	if err := r.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("livemon: ring: %w", err)
	}
	if err := r.load(); err != nil {
		return nil, err
	}
	if err := r.openActive(); err != nil {
		return nil, err
	}
	return r, nil
}

// segPath names segment i.
func (r *Ring) segPath(i int) string {
	return filepath.Join(r.dir, fmt.Sprintf("seg-%08d.jsonl", i))
}

// load reads every retained segment; openActive then truncates a torn
// tail off the newest one.
func (r *Ring) load() error {
	entries, err := r.fs.ReadDir(r.dir)
	if err != nil {
		return fmt.Errorf("livemon: ring: %w", err)
	}
	var idxs []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".jsonl") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".jsonl"))
		if err != nil {
			continue
		}
		idxs = append(idxs, n)
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		keep, err := r.loadSegment(idx)
		if err != nil {
			return err
		}
		r.segIdx, r.segSize = idx, keep
	}
	r.recovered = len(r.recs)
	return nil
}

// loadSegment parses one segment and returns its committed byte length.
func (r *Ring) loadSegment(idx int) (int64, error) {
	data, err := r.fs.ReadFile(r.segPath(idx))
	if err != nil {
		return 0, fmt.Errorf("livemon: ring: %w", err)
	}
	s, _ := frame.ScanFrames(bytes.NewReader(data), func(body []byte) bool { // a bytes.Reader cannot fail
		var rec Record
		if json.Unmarshal(body, &rec) != nil {
			return false
		}
		r.recs = append(r.recs, memRec{Record: rec, seg: idx})
		if rec.Seq >= r.next {
			r.next = rec.Seq + 1
		}
		if rec.SimNs > r.recoveredSimNs {
			r.recoveredSimNs = rec.SimNs
		}
		return true
	})
	return s.Good, nil
}

// openActive opens the active segment for appending at its committed
// length, cutting off any torn tail.
func (r *Ring) openActive() error {
	app, err := frame.OpenAppender(r.fs, r.segPath(r.segIdx), os.O_CREATE, r.segSize)
	if err != nil {
		return fmt.Errorf("livemon: ring: %w", err)
	}
	r.app = app
	return nil
}

// Append stores one record and returns its sequence number. stored is
// false when the append was suppressed as a replay duplicate (its sim
// time predates what the ring already recovered) — callers must not
// broadcast suppressed records, reconnecting clients get the originals
// from replay instead.
func (r *Ring) Append(kind string, at sim.Time, data []byte) (seq uint64, stored bool) {
	if int64(at) < r.recoveredSimNs {
		return 0, false
	}
	rec := Record{Seq: r.next, SimNs: int64(at), Kind: kind, Data: data}
	encoded, err := json.Marshal(rec)
	if err != nil {
		r.fail(err)
		return 0, false
	}
	r.line = frame.Append(r.line[:0], encoded)
	if r.app != nil {
		if err := r.app.Write(r.line, r.pruneOnENOSPC); err != nil {
			r.fail(err)
		}
	}
	r.recs = append(r.recs, memRec{Record: rec, seg: r.segIdx})
	r.next++
	r.segSize += int64(len(r.line))
	if r.segSize >= r.segBytes {
		r.rotate()
	}
	return rec.Seq, true
}

// pruneOnENOSPC is the ring's graceful degradation: a full volume
// (ENOSPC) prunes retained history aggressively to free space and asks
// for the append to be retried once; any other error latches.
func (r *Ring) pruneOnENOSPC(err error) bool {
	if !errors.Is(err, syscall.ENOSPC) {
		return false
	}
	r.PruneAggressive()
	return true
}

// PruneAggressive drops every retained segment except the active one
// and tightens the retention cap to two segments — the livemon side of
// graceful ENOSPC degradation. Safe to call at any time.
func (r *Ring) PruneAggressive() {
	r.pruned++
	if r.maxSegs > 2 {
		r.maxSegs = 2
	}
	drop := 0
	for drop < len(r.recs) && r.recs[drop].seg < r.segIdx {
		drop++
	}
	if drop > 0 {
		r.recs = append(r.recs[:0:0], r.recs[drop:]...)
	}
	if r.dir != "" {
		for i := r.segIdx - 1; i >= 0; i-- {
			if err := r.fs.Remove(r.segPath(i)); err != nil {
				break // already gone
			}
		}
	}
}

// Pruned counts PruneAggressive invocations.
func (r *Ring) Pruned() int { return r.pruned }

// rotate starts a new segment and prunes the oldest past the cap. In
// memory-only mode the same bounds apply without files.
func (r *Ring) rotate() {
	if r.app != nil {
		if err := r.app.Close(); err != nil {
			r.fail(err)
		}
		r.app = nil
	}
	r.segIdx++
	r.segSize = 0
	if r.dir != "" {
		if err := r.openActive(); err != nil {
			r.fail(err)
		}
	}
	oldest := r.segIdx - r.maxSegs
	if oldest < 0 {
		return
	}
	drop := 0
	for drop < len(r.recs) && r.recs[drop].seg <= oldest {
		drop++
	}
	if drop > 0 {
		r.recs = append(r.recs[:0:0], r.recs[drop:]...)
	}
	if r.dir != "" {
		for i := oldest; i >= 0; i-- {
			path := r.segPath(i)
			if err := r.fs.Remove(path); err != nil {
				break // already pruned on an earlier rotation
			}
		}
	}
}

func (r *Ring) fail(err error) {
	if r.err == nil {
		r.err = fmt.Errorf("livemon: ring: %w", err)
	}
}

// Err reports the first I/O error, if any; the in-memory view keeps
// working past it.
func (r *Ring) Err() error { return r.err }

// Len returns the number of retained records.
func (r *Ring) Len() int { return len(r.recs) }

// Recovered returns how many records were loaded from disk on open
// (zero for a fresh or memory-only ring).
func (r *Ring) Recovered() int { return r.recovered }

// NextSeq returns the sequence number the next append will take.
func (r *Ring) NextSeq() uint64 { return r.next }

// Scan calls fn for every retained record in append order until fn
// returns false.
func (r *Ring) Scan(fn func(Record) bool) {
	for i := range r.recs {
		if !fn(r.recs[i].Record) {
			return
		}
	}
}

// EventsSince returns the retained non-snapshot records with Seq >
// lastID, in order — the SSE reconnect replay set.
func (r *Ring) EventsSince(lastID uint64) []Record {
	var out []Record
	for i := range r.recs {
		rec := r.recs[i].Record
		if rec.Seq > lastID && rec.Kind != KindSnapshot {
			out = append(out, rec)
		}
	}
	return out
}

// Close closes the active segment.
func (r *Ring) Close() error {
	if r.app == nil {
		return r.err
	}
	cerr := r.app.Close()
	r.app = nil
	if r.err != nil {
		return r.err
	}
	return cerr
}
