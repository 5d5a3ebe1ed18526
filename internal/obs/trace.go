package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"

	"repro/internal/sim"
)

// Tracer records spans over the discrete-event simulation: each span has
// a parent, a name, sim-time start/end, and optional attributes. Like
// the registry, a nil *Tracer is the observability-off configuration:
// Start on a nil tracer returns a nil span, and every span method is a
// no-op on a nil receiver, so instrumented code needs no conditionals.
type Tracer struct {
	clock Clock
	mu    sync.Mutex
	next  uint64
	spans []*Span

	// Memory bound (SetSpanCap). 0 means unbounded; past the cap new
	// spans and counter samples are dropped and counted.
	spanCap  int
	dropped  uint64
	droppedC *Counter

	// Counter samples recorded for the Chrome exporter's "C" events
	// (RecordCounter); not part of the JSONL span artifact.
	counters []counterSample
}

// counterSample is one RecordCounter observation.
type counterSample struct {
	name string
	at   sim.Time
	v    float64
}

// NewTracer builds a tracer stamping spans with clock (nil clock stamps
// everything at time zero).
func NewTracer(clock Clock) *Tracer {
	if clock == nil {
		clock = func() sim.Time { return 0 }
	}
	return &Tracer{clock: clock}
}

// NewKernelTracer builds a tracer on the kernel's virtual clock.
func NewKernelTracer(k *sim.Kernel) *Tracer { return NewTracer(k.Now) }

// Span is one traced operation. Spans form a tree via Child.
type Span struct {
	tr     *Tracer
	id     uint64
	parent uint64
	name   string
	start  sim.Time
	end    sim.Time
	ended  bool
	attrs  []Label
}

// Start opens a root span. Returns nil on a nil tracer.
func (t *Tracer) Start(name string, attrs ...Label) *Span {
	return t.startSpan(name, 0, attrs)
}

// SetSpanCap bounds the tracer's memory: once n spans (or n counter
// samples) are retained, further ones are dropped instead of growing
// without bound on long campaigns. Drops increment dropped (typically
// the registry's patchwork_trace_dropped_total counter; nil is allowed)
// and the Dropped tally. n <= 0 restores unbounded retention. Spans are
// started from kernel events, so the cap trips at the same point in
// every same-seed run — sim artifacts stay deterministic.
func (t *Tracer) SetSpanCap(n int, dropped *Counter) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spanCap = n
	t.droppedC = dropped
}

// Dropped reports how many spans and counter samples the cap discarded.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// drop counts one capped-out record. Callers hold t.mu.
func (t *Tracer) drop() {
	t.dropped++
	if t.droppedC != nil {
		t.droppedC.Inc()
	}
}

func (t *Tracer) startSpan(name string, parent uint64, attrs []Label) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spanCap > 0 && len(t.spans) >= t.spanCap {
		t.drop()
		return nil
	}
	t.next++
	sp := &Span{
		tr: t, id: t.next, parent: parent, name: name,
		start: t.clock(), attrs: append([]Label(nil), attrs...),
	}
	t.spans = append(t.spans, sp)
	return sp
}

// Len reports how many spans have been started.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// RecordCounter samples a metric value at the current sim time for the
// Chrome exporter, which renders the series as a counter ("C") track
// alongside the spans — load next to latency in one flame view. Samples
// are separate from spans: they never appear in WriteJSONL, so existing
// span artifacts are unaffected. Subject to the SetSpanCap bound.
func (t *Tracer) RecordCounter(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spanCap > 0 && len(t.counters) >= t.spanCap {
		t.drop()
		return
	}
	t.counters = append(t.counters, counterSample{name: name, at: t.clock(), v: v})
}

// Child opens a span parented on s. Safe on a nil receiver (returns nil).
func (s *Span) Child(name string, attrs ...Label) *Span {
	if s == nil {
		return nil
	}
	return s.tr.startSpan(name, s.id, attrs)
}

// ID returns the span's identifier (0 on nil).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Annotate appends an attribute to an open span.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	s.attrs = append(s.attrs, Label{Key: key, Value: value})
}

// End closes the span at the current sim time. Ending twice keeps the
// first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if s.ended {
		return
	}
	s.end = s.tr.clock()
	s.ended = true
}

// SpanRecord is an exported snapshot of one span, for consumers that
// iterate the trace (the health flight recorder, the Chrome exporter).
type SpanRecord struct {
	ID     uint64
	Parent uint64
	Name   string
	Start  sim.Time
	End    sim.Time
	Ended  bool
	Attrs  []Label
}

// Records returns a snapshot of every span in start order. Attribute
// slices are copied, so callers may hold the result across further
// tracing.
func (t *Tracer) Records() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, len(t.spans))
	for i, sp := range t.spans {
		out[i] = SpanRecord{
			ID: sp.id, Parent: sp.parent, Name: sp.name,
			Start: sp.start, End: sp.end, Ended: sp.ended,
			Attrs: append([]Label(nil), sp.attrs...),
		}
	}
	return out
}

// WriteJSONL emits one JSON object per span, in start order (which is
// deterministic because the simulation is). Unended spans omit end_ns.
// Attribute order is preserved from the instrumentation site, so output
// for a fixed seed is byte-identical across runs.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	t.mu.Unlock()
	bw := bufio.NewWriter(w)
	for _, sp := range spans {
		if err := writeSpanJSON(bw, sp); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// chromeMicros renders a sim time as Chrome trace microseconds with
// nanosecond precision preserved in the fraction.
func chromeMicros(t sim.Time) string {
	return fmt.Sprintf("%d.%03d", int64(t)/1000, int64(t)%1000)
}

// WriteChromeTrace emits the span tree in the Chrome trace-event JSON
// array format, so a dump opens directly in about://tracing or Perfetto.
// Ended spans become complete ("X") events; still-open spans become
// begin ("B") events. Each root span and each of its direct children get
// their own track (tid), so concurrent per-site subtrees render side by
// side instead of interleaving; deeper descendants inherit their
// subtree's track and nest by timing. Counter samples recorded with
// RecordCounter follow the spans as counter ("C") events on tid 0.
// Output is deterministic for a deterministic simulation.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	recs := t.Records()
	var counters []counterSample
	if t != nil {
		t.mu.Lock()
		counters = append(counters, t.counters...)
		t.mu.Unlock()
	}
	byID := make(map[uint64]SpanRecord, len(recs))
	for _, r := range recs {
		byID[r.ID] = r
	}
	// track resolves the tid: the span itself when it is a root or a
	// direct child of a root, otherwise its closest such ancestor.
	var track func(r SpanRecord) uint64
	track = func(r SpanRecord) uint64 {
		if r.Parent == 0 {
			return r.ID
		}
		parent, ok := byID[r.Parent]
		if !ok || parent.Parent == 0 {
			return r.ID
		}
		return track(parent)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	for i, r := range recs {
		if i > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		name, err := json.Marshal(r.Name)
		if err != nil {
			return err
		}
		ph := "B"
		if r.Ended {
			ph = "X"
		}
		if _, err := fmt.Fprintf(bw, `{"name":%s,"cat":"sim","ph":%q,"ts":%s,`,
			name, ph, chromeMicros(r.Start)); err != nil {
			return err
		}
		if r.Ended {
			if _, err := fmt.Fprintf(bw, `"dur":%s,`, chromeMicros(r.End-r.Start)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(bw, `"pid":1,"tid":%d,"args":{"span":%d,"parent":%d`,
			track(r), r.ID, r.Parent); err != nil {
			return err
		}
		for _, a := range r.Attrs {
			k, err := json.Marshal(a.Key)
			if err != nil {
				return err
			}
			v, err := json.Marshal(a.Value)
			if err != nil {
				return err
			}
			if _, err := fmt.Fprintf(bw, ",%s:%s", k, v); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString("}}"); err != nil {
			return err
		}
	}
	for i, c := range counters {
		if i > 0 || len(recs) > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		name, err := json.Marshal(c.name)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(bw, `{"name":%s,"cat":"sim","ph":"C","ts":%s,"pid":1,"tid":0,"args":{"value":%s}}`,
			name, chromeMicros(c.at), strconv.FormatFloat(c.v, 'g', -1, 64)); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

func writeSpanJSON(w *bufio.Writer, sp *Span) error {
	name, err := json.Marshal(sp.name)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, `{"span":%d,"parent":%d,"name":%s,"start_ns":%d`,
		sp.id, sp.parent, name, int64(sp.start)); err != nil {
		return err
	}
	if sp.ended {
		if _, err := fmt.Fprintf(w, `,"end_ns":%d,"dur_ns":%d`,
			int64(sp.end), int64(sp.end-sp.start)); err != nil {
			return err
		}
	}
	if len(sp.attrs) > 0 {
		if _, err := w.WriteString(`,"attrs":{`); err != nil {
			return err
		}
		for i, a := range sp.attrs {
			if i > 0 {
				if err := w.WriteByte(','); err != nil {
					return err
				}
			}
			k, err := json.Marshal(a.Key)
			if err != nil {
				return err
			}
			v, err := json.Marshal(a.Value)
			if err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s:%s", k, v); err != nil {
				return err
			}
		}
		if err := w.WriteByte('}'); err != nil {
			return err
		}
	}
	_, err = w.WriteString("}\n")
	return err
}
