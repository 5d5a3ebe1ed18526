// Package prof is the provenance profiler: it streams the kernel's
// causal event DAG (sim.ProvRecord per schedule call) to a CRC-framed
// on-disk trace and analyzes loaded traces — sim-time critical path,
// per-site/per-callback blame attribution, and fan-out statistics.
//
// The trace is a sim-time artifact and therefore deterministic: two
// same-seed runs produce byte-identical traces, however long each took
// in wall time. Callback code pointers are never persisted — function
// names are interned into numbered definitions at write time, so the
// bytes are stable across processes.
//
// Framing reuses the internal/journal idiom: every line is
// "%08x %s\n" — the IEEE CRC32 of the JSON body, a space, the body.
// Readers stop at the first damaged line (torn tail after a crash).
package prof

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"

	"repro/internal/sim"
	"repro/internal/storefault"
)

// TraceFormat identifies a provenance trace header.
const (
	TraceFormat  = "patchwork-provenance"
	TraceVersion = 1
)

// Writer streams provenance records to a CRC-framed trace. Record is
// called synchronously from the simulation goroutine (it is the
// kernel's provenance hook); Flush/Stats may be called concurrently
// from an HTTP handler serving a profile download, so all state is
// mutex-guarded.
type Writer struct {
	mu     sync.Mutex
	f      storefault.File
	bw     *bufio.Writer
	fnIDs  map[uintptr]int32
	body   []byte // body scratch, reused per line
	line   []byte // framed-line scratch
	n      uint64
	closed bool
	err    error
}

// CreateTrace creates (truncating) a provenance trace file, parent
// directories included, and writes the header frame.
func CreateTrace(path string) (*Writer, error) {
	return CreateTraceFS(nil, path)
}

// CreateTraceFS is CreateTrace through an explicit filesystem seam (nil
// means the real disk) — the storage-chaos injection point.
func CreateTraceFS(fsys storefault.FS, path string) (*Writer, error) {
	fsys = storefault.Or(fsys)
	if err := fsys.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("prof: %w", err)
	}
	f, err := fsys.Create(path)
	if err != nil {
		return nil, fmt.Errorf("prof: %w", err)
	}
	w := NewWriter(f)
	w.f = f
	return w, nil
}

// NewWriter streams a trace to an arbitrary writer (tests, in-memory
// buffers). The header frame is written immediately.
func NewWriter(out io.Writer) *Writer {
	w := &Writer{bw: bufio.NewWriterSize(out, 1<<16), fnIDs: make(map[uintptr]int32)}
	w.emit([]byte(fmt.Sprintf(`{"k":"hdr","format":%q,"v":%d}`, TraceFormat, TraceVersion)))
	return w
}

// emit frames body with its CRC and appends the line. Callers hold mu
// (or have exclusive access during construction).
func (w *Writer) emit(body []byte) {
	if w.err != nil {
		return
	}
	crc := crc32.ChecksumIEEE(body)
	const hexdigits = "0123456789abcdef"
	w.line = w.line[:0]
	for shift := 28; shift >= 0; shift -= 4 {
		w.line = append(w.line, hexdigits[(crc>>uint(shift))&0xf])
	}
	w.line = append(w.line, ' ')
	w.line = append(w.line, body...)
	w.line = append(w.line, '\n')
	if _, err := w.bw.Write(w.line); err != nil {
		w.err = err
	}
}

// DefTag records a tag definition (e.g. site id → site name) so reports
// can name provenance domains. Call before the run starts, in a
// deterministic order.
func (w *Writer) DefTag(id int32, name string) {
	quoted, _ := json.Marshal(name)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.emit([]byte(fmt.Sprintf(`{"k":"tag","id":%d,"name":%s}`, id, quoted)))
}

// fnID interns the callback's code pointer, emitting a definition frame
// on first use. Name resolution happens here — once per distinct
// callback, not per event. Callers hold mu.
func (w *Writer) fnID(pc uintptr) int32 {
	if id, ok := w.fnIDs[pc]; ok {
		return id
	}
	id := int32(len(w.fnIDs))
	w.fnIDs[pc] = id
	name := "unknown"
	if f := runtime.FuncForPC(pc); f != nil {
		name = f.Name()
	}
	quoted, _ := json.Marshal(name)
	w.emit([]byte(fmt.Sprintf(`{"k":"fn","id":%d,"name":%s}`, id, quoted)))
	return id
}

// Record appends one provenance record. It is the hook to install with
// Kernel.SetProvenance.
func (w *Writer) Record(r sim.ProvRecord) {
	w.mu.Lock()
	defer w.mu.Unlock()
	id := w.fnID(r.PC)
	b := w.body[:0]
	b = append(b, `{"k":"ev","s":`...)
	b = strconv.AppendUint(b, r.Seq, 10)
	b = append(b, `,"p":`...)
	if r.Parent == sim.NoProvParent {
		b = append(b, `-1`...)
	} else {
		b = strconv.AppendUint(b, r.Parent, 10)
	}
	b = append(b, `,"t":`...)
	b = strconv.AppendInt(b, int64(r.At), 10)
	b = append(b, `,"f":`...)
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, `,"g":`...)
	b = strconv.AppendInt(b, int64(r.Tag), 10)
	b = append(b, '}')
	w.body = b
	w.emit(b)
	w.n++
}

// Records reports how many event records have been written.
func (w *Writer) Records() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Flush drains buffered frames to the underlying writer — called by a
// live profile-download endpoint before serving the file.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	return w.bw.Flush()
}

// Close flushes and closes the trace. Idempotent; the first error wins.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.err
	}
	w.closed = true
	if err := w.bw.Flush(); err != nil && w.err == nil {
		w.err = err
	}
	if w.f != nil {
		if err := w.f.Close(); err != nil && w.err == nil {
			w.err = err
		}
		w.f = nil
	}
	return w.err
}
