// Package obs is the platform observability layer: a metrics registry
// (labeled counters, gauges, and log2-bucket histograms) and a span
// tracer, both timestamped in virtual sim.Time rather than wall clock so
// that exported output is bit-for-bit deterministic under a fixed seed.
//
// Observability is strictly opt-in. A nil *Registry (or *Tracer) is the
// default everywhere: every instrument method is safe on a nil receiver
// and instrument handles resolved from a nil registry are nil, so an
// instrumented hot path pays exactly one branch when observability is
// off. Callers on hot paths should resolve their instruments once at
// construction time (map lookup + lock) and hold the handles.
//
// Instruments are internally synchronized with atomics, so recording is
// safe from any goroutine; exporters take a consistent snapshot under
// the registry lock.
package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Clock reports the current virtual time. A nil Clock stamps every
// observation at time zero (useful for substrates, like a bare hostsim
// run, that advance time manually).
type Clock func() sim.Time

// Label is one key=value metric dimension.
type Label struct{ Key, Value string }

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind classifies an instrument family.
type Kind uint8

// Instrument kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String names the kind in Prometheus vocabulary.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Registry holds metric families keyed by name. The zero value is not
// usable; construct with NewRegistry. All methods are safe on a nil
// receiver (they return nil instruments / do nothing), which is how the
// observability-off configuration works.
type Registry struct {
	clock      Clock
	mu         sync.Mutex
	families   map[string]*family
	collectors []func()
}

type family struct {
	name, help string
	kind       Kind
	kindSet    bool // false until the first instrument fixes the kind
	insts      map[string]*instrument
}

type instrument struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// NewRegistry builds a registry stamping observations with clock (nil
// means every stamp is time zero).
func NewRegistry(clock Clock) *Registry {
	if clock == nil {
		clock = func() sim.Time { return 0 }
	}
	return &Registry{clock: clock, families: make(map[string]*family)}
}

// NewKernelRegistry builds a registry on the kernel's virtual clock.
func NewKernelRegistry(k *sim.Kernel) *Registry { return NewRegistry(k.Now) }

// normalize sorts labels by key and returns the identity string.
func normalize(labels []Label) ([]Label, string) {
	ls := append([]Label(nil), labels...)
	sort.SliceStable(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var sb strings.Builder
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteByte('=')
		sb.WriteString(l.Value)
	}
	return ls, sb.String()
}

// lookup finds or creates the instrument for (name, labels), enforcing
// kind consistency. A kind mismatch panics: reusing a metric name with a
// different type is always a programming error.
func (r *Registry) lookup(name string, kind Kind, labels []Label) *instrument {
	ls, id := normalize(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, insts: make(map[string]*instrument)}
		r.families[name] = f
	}
	if !f.kindSet {
		f.kind, f.kindSet = kind, true
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q requested as %v but registered as %v", name, kind, f.kind))
	}
	inst := f.insts[id]
	if inst == nil {
		inst = &instrument{labels: ls}
		switch kind {
		case KindCounter:
			inst.c = &Counter{clock: r.clock}
		case KindGauge:
			inst.g = &Gauge{clock: r.clock}
		case KindHistogram:
			inst.h = &Histogram{clock: r.clock}
		}
		f.insts[id] = inst
	}
	return inst
}

// Counter returns the counter for (name, labels), creating it on first
// use. Returns nil when the registry is nil.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, KindCounter, labels).c
}

// Gauge returns the gauge for (name, labels).
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, KindGauge, labels).g
}

// Histogram returns the log2-bucket histogram for (name, labels).
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, KindHistogram, labels).h
}

// Help attaches help text to a metric family (shown by the Prometheus
// exporter). Creating the family first is not required.
func (r *Registry) Help(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		// Remember the help text; the kind is fixed when the first
		// instrument is created.
		f = &family{name: name, insts: make(map[string]*instrument)}
		r.families[name] = f
	}
	f.help = help
}

// RegisterCollector adds a callback run (in registration order) before
// every export, letting pull-style sources refresh gauges.
func (r *Registry) RegisterCollector(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// Collect runs the registered collectors. Exporters call this
// automatically.
func (r *Registry) Collect() {
	if r == nil {
		return
	}
	r.mu.Lock()
	fns := append([]func(){}, r.collectors...)
	r.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// casMax raises a to at least v, atomically. Used for the last-update
// stamps of the explicit-time recording variants, whose stamps can run
// ahead of the registry clock: capture charges a batched writev at the
// frame's completion time (hostsim.Writev(done, …)), so a later call
// may carry an earlier stamp. Keeping the maximum makes the stamp the
// latest observation time whatever the call order — the value the
// .prom/.jsonl/.csv exports print. It is a compare-and-swap rather than
// a plain store because instruments are safe for concurrent use:
// livemon scrapes its runtime registry from HTTP goroutines while the
// run updates it.
func casMax(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// Counter is a monotonically increasing count. Safe for concurrent use;
// all methods are no-ops on a nil receiver.
type Counter struct {
	clock Clock
	v     atomic.Int64
	at    atomic.Int64
}

// Add increments by n (negative n is ignored: counters never go down).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
	c.at.Store(int64(c.clock()))
}

// Inc increments by one.
func (c *Counter) Inc() { c.Add(1) }

// AddAt increments by n stamping the observation at an explicit sim
// time instead of reading the registry clock. Dataplane call sites pass
// the time the observation belongs to, which can be ahead of the kernel
// clock (hostsim stamps a writev at the completion time capture hands
// it); the stamp never moves backwards (see casMax).
func (c *Counter) AddAt(n int64, at sim.Time) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
	casMax(&c.at, int64(at))
}

// IncAt increments by one at an explicit sim time (see AddAt).
func (c *Counter) IncAt(at sim.Time) { c.AddAt(1, at) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// LastUpdate returns the sim time of the most recent increment.
func (c *Counter) LastUpdate() sim.Time {
	if c == nil {
		return 0
	}
	return sim.Time(c.at.Load())
}

// Gauge is a value that can go up and down. Safe for concurrent use;
// all methods are no-ops on a nil receiver.
type Gauge struct {
	clock Clock
	bits  atomic.Uint64
	at    atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
	g.at.Store(int64(g.clock()))
}

// SetMax stores v only when it exceeds the current value — the
// high-watermark idiom used for queue depths.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			g.at.Store(int64(g.clock()))
			return
		}
	}
}

// SetAt stores v stamping the observation at an explicit sim time (see
// Counter.AddAt).
func (g *Gauge) SetAt(v float64, at sim.Time) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
	casMax(&g.at, int64(at))
}

// SetMaxAt is SetMax with an explicit sim-time stamp (see Counter.AddAt):
// the stamp only moves when the value actually rises, matching SetMax's
// "time of the last high-watermark raise" semantics.
func (g *Gauge) SetMaxAt(v float64, at sim.Time) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			casMax(&g.at, int64(at))
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// LastUpdate returns the sim time of the most recent Set.
func (g *Gauge) LastUpdate() sim.Time {
	if g == nil {
		return 0
	}
	return sim.Time(g.at.Load())
}

// histBuckets is the bucket count: bucket i covers [2^i, 2^(i+1)).
const histBuckets = 64

// Histogram is a bpftrace-style log2 histogram (the same shape hostsim
// uses for writev latency). Safe for concurrent use; all methods are
// no-ops on a nil receiver.
type Histogram struct {
	clock   Clock
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	at      atomic.Int64
}

// Observe records one value. Values below 1 land in the first bucket.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	b := 0
	if v >= 1 {
		b = bits.Len64(uint64(v)) - 1
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	h.at.Store(int64(h.clock()))
}

// ObserveAt records one value stamping the observation at an explicit
// sim time (see Counter.AddAt).
func (h *Histogram) ObserveAt(v int64, at sim.Time) {
	if h == nil {
		return
	}
	b := 0
	if v >= 1 {
		b = bits.Len64(uint64(v)) - 1
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	casMax(&h.at, int64(at))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Bucket returns the count for bucket i ([2^i, 2^(i+1))).
func (h *Histogram) Bucket(i int) int64 {
	if h == nil || i < 0 || i >= histBuckets {
		return 0
	}
	return h.buckets[i].Load()
}

// LastUpdate returns the sim time of the most recent observation.
func (h *Histogram) LastUpdate() sim.Time {
	if h == nil {
		return 0
	}
	return sim.Time(h.at.Load())
}

// Quantile estimates the q-quantile (q in [0, 1]) by linear
// interpolation inside the log2 bucket containing the target rank, the
// same scheme Prometheus applies to its histograms. An empty (or nil)
// histogram has no quantiles: the defined sentinel is NaN, checked
// explicitly here rather than left to the bucket interpolation's edge
// behavior, and exporters render it with the Prometheus "NaN" spelling.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.count.Load() == 0 {
		return math.NaN()
	}
	var bs []BucketCount
	for i := 0; i < histBuckets; i++ {
		if c := h.buckets[i].Load(); c > 0 {
			bs = append(bs, BucketCount{UpperBound: 1 << uint(i+1), Count: c})
		}
	}
	return BucketQuantile(q, bs)
}

// BucketQuantile interpolates the q-quantile from a slice of non-empty
// log2 buckets (as found in MetricPoint.Buckets). A bucket with upper
// bound u covers [u/2, u), except the first bucket (u = 2), which also
// absorbs sub-1 observations and therefore covers [0, 2). Returns NaN
// when no observations exist.
func BucketQuantile(q float64, buckets []BucketCount) float64 {
	var total int64
	for _, b := range buckets {
		total += b.Count
	}
	if total == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for _, b := range buckets {
		if float64(cum)+float64(b.Count) >= rank {
			hi := float64(b.UpperBound)
			lo := hi / 2
			if b.UpperBound <= 2 {
				lo = 0
			}
			within := (rank - float64(cum)) / float64(b.Count)
			return lo + within*(hi-lo)
		}
		cum += b.Count
	}
	// Unreachable: rank <= total and the loop covers every observation.
	return float64(buckets[len(buckets)-1].UpperBound)
}

// BucketCount is one non-empty histogram bucket in a snapshot.
type BucketCount struct {
	// UpperBound is the bucket's exclusive upper bound (2^(i+1)).
	UpperBound int64
	// Count is the number of observations in the bucket (not cumulative).
	Count int64
}

// MetricPoint is one instrument's state in a snapshot.
type MetricPoint struct {
	Name   string
	Kind   Kind
	Help   string
	Labels []Label
	// Value holds the counter or gauge value; for histograms it is the
	// observation count.
	Value float64
	// Sum and Buckets are populated for histograms only.
	Sum     int64
	Buckets []BucketCount
	// At is the sim time of the last observation.
	At sim.Time
}

// Snapshot runs collectors and returns every instrument, sorted by
// metric name then label identity — a deterministic order, so exports
// of a deterministic simulation are byte-identical across runs.
func (r *Registry) Snapshot() []MetricPoint {
	if r == nil {
		return nil
	}
	r.Collect()
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []MetricPoint
	for _, n := range names {
		f := r.families[n]
		ids := make([]string, 0, len(f.insts))
		for id := range f.insts {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			inst := f.insts[id]
			mp := MetricPoint{Name: f.name, Kind: f.kind, Help: f.help, Labels: inst.labels}
			switch f.kind {
			case KindCounter:
				mp.Value = float64(inst.c.Value())
				mp.At = inst.c.LastUpdate()
			case KindGauge:
				mp.Value = inst.g.Value()
				mp.At = inst.g.LastUpdate()
			case KindHistogram:
				mp.Value = float64(inst.h.Count())
				mp.Sum = inst.h.Sum()
				mp.At = inst.h.LastUpdate()
				var cum int64
				for i := 0; i < histBuckets; i++ {
					if c := inst.h.Bucket(i); c > 0 {
						cum += c
						mp.Buckets = append(mp.Buckets, BucketCount{
							UpperBound: 1 << uint(i+1), Count: c,
						})
					}
				}
				// Observe bumps the bucket before the total count, so a
				// snapshot racing a recording can see one more bucketed
				// observation than counted. Clamp the count up to the
				// bucket sum so the exposition's +Inf bucket stays
				// cumulative-monotonic under concurrent scrapes.
				if cum > int64(mp.Value) {
					mp.Value = float64(cum)
				}
			}
			out = append(out, mp)
		}
	}
	return out
}
