package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/storefault"
)

// Span is one timed call the benchmark made into a layer. A batch span
// stands for many calls of one function under one parent (one per frame,
// say): Calls counts them, Busy sums their durations, and Start/End
// bound the first and last. For a plain span Calls is 1 and Busy is
// End-Start. Times are nanoseconds since the tracer started.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns"`
	Calls  int64  `json:"calls"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// Tracer keeps spans in memory; WriteSpans dumps them once the run is
// over.
// Spans nest by call order: a span begun while another is open is its
// child. Not safe for concurrent use — the traced workloads run on one
// goroutine.
type Tracer struct {
	t0    time.Time
	run   int
	spans []Span
	stack []int
}

// NewTracer starts a tracer whose spans carry run id run.
func NewTracer(run int) *Tracer {
	return &Tracer{t0: time.Now(), run: run}
}

func (t *Tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *Tracer) parent() int {
	if len(t.stack) == 0 {
		return 0
	}
	return t.stack[len(t.stack)-1]
}

func (t *Tracer) add(name string) int {
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: t.parent(), Run: t.run, Name: name, Start: -1})
	return len(t.spans)
}

// Begin opens a span around one call; End closes it. These and the
// other methods do nothing on a nil Tracer, so untraced runs share the
// traced code path.
func (t *Tracer) Begin(name string) int {
	if t == nil {
		return 0
	}
	id := t.add(name)
	t.Enter(id)
	return id
}

// End closes the innermost open span, which must be id.
func (t *Tracer) End(id int) {
	if t != nil {
		t.Exit(id)
	}
}

// Batch declares a batch span under the currently open span. Each call
// it stands for is bracketed by Enter and Exit.
func (t *Tracer) Batch(name string) int {
	if t == nil {
		return 0
	}
	return t.add(name)
}

// Enter opens one call of span id, so spans begun inside it are its
// children.
func (t *Tracer) Enter(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	now := t.now()
	if s.Start < 0 {
		s.Start = now
	}
	s.End = now // the open call's start, until Exit
	t.stack = append(t.stack, id)
}

// Exit closes the call Enter opened.
func (t *Tracer) Exit(id int) {
	if t == nil {
		return
	}
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %d closed out of order", id))
	}
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[id-1]
	now := t.now()
	s.Busy += now - s.End
	s.End = now
	s.Calls++
}

// Spans returns the recorded spans in creation order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// SelfNanos returns each span's self time: its busy time minus the busy
// time of its direct children.
func SelfNanos(spans []Span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.Busy
		if s.Parent > 0 {
			self[s.Parent-1] -= s.Busy
		}
	}
	return self
}

// spanTotals sums calls, busy and self time and bytes per span name.
type spanTotal struct {
	Calls, Busy, Self, Bytes int64
}

func spanTotals(spans []Span) map[string]spanTotal {
	self := SelfNanos(spans)
	out := make(map[string]spanTotal)
	for i, s := range spans {
		t := out[s.Name]
		t.Calls += s.Calls
		t.Busy += s.Busy
		t.Self += self[i]
		t.Bytes += s.Bytes
		out[s.Name] = t
	}
	return out
}

// WriteSpans writes the spans as JSON lines.
func WriteSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedFS is the benchmark's storage seam: every write, rename and sync
// a layer makes through it is recorded as a span named "<layer>.write"
// or "<layer>.sync", with the bytes written.
type timedFS struct {
	storefault.FS
	tr    *Tracer
	layer string
}

// storeFS is the filesystem a layer writes through: timed with a
// tracer, the plain disk without one.
func storeFS(tr *Tracer, layer string) storefault.FS {
	if tr == nil {
		return storefault.Disk
	}
	return &timedFS{FS: storefault.Disk, tr: tr, layer: layer}
}

func (f *timedFS) span(op string, bytes int, call func() error) error {
	id := f.tr.Begin(f.layer + "." + op)
	err := call()
	f.tr.End(id)
	f.tr.spans[id-1].Bytes += int64(bytes)
	return err
}

func (f *timedFS) Create(path string) (storefault.File, error) {
	file, err := f.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, fs: f}, nil
}

func (f *timedFS) OpenFile(path string, flag int, perm os.FileMode) (storefault.File, error) {
	file, err := f.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, fs: f}, nil
}

func (f *timedFS) WriteFile(path string, data []byte, perm os.FileMode) error {
	return f.span("write", len(data), func() error { return f.FS.WriteFile(path, data, perm) })
}

// Rename is the commit step of a tmp-then-rename write, so it counts as
// write time.
func (f *timedFS) Rename(oldpath, newpath string) error {
	return f.span("write", 0, func() error { return f.FS.Rename(oldpath, newpath) })
}

type timedFile struct {
	storefault.File
	fs *timedFS
}

func (t *timedFile) Write(p []byte) (n int, err error) {
	err = t.fs.span("write", len(p), func() error { n, err = t.File.Write(p); return err })
	return n, err
}

func (t *timedFile) WriteString(s string) (n int, err error) {
	err = t.fs.span("write", len(s), func() error { n, err = t.File.WriteString(s); return err })
	return n, err
}

func (t *timedFile) Sync() error {
	return t.fs.span("sync", 0, t.File.Sync)
}
