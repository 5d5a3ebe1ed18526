// Package sim implements a deterministic discrete-event simulation kernel.
// Every time-dependent substrate in this repository (switches, hosts,
// capture pipelines, the testbed federation) advances on a shared virtual
// clock driven by an event queue. Wall-clock time never enters a
// simulation, which keeps experiment output reproducible.
//
// The kernel is allocation-free on its steady-state hot path: scheduled
// events live in a pooled arena of slots recycled through a free list,
// and the priority queue is a 4-ary min-heap of small value entries
// (timestamp, sequence, slot index) rather than a heap of pointers. The
// argument-carrying schedule variants (AtArg / AfterArg) let callers on
// per-frame paths schedule without allocating a capturing closure, so a
// dense simulation runs with zero allocations per event once the arena
// and heap have grown to the schedule's high-water mark.
//
// Determinism contract: events fire in (time, sequence) order, where the
// sequence number increments on every schedule call. Two events at the
// same virtual time therefore run in the order they were scheduled
// (FIFO), regardless of arena slot reuse or heap layout, and a run is a
// pure function of the schedule — never of memory addresses or map
// iteration.
package sim

import "fmt"

// Time is a virtual timestamp in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration = Time

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
	Day                  = 24 * Hour
	Week                 = 7 * Day
)

// String renders the time as seconds with nanosecond precision.
func (t Time) String() string {
	return fmt.Sprintf("%d.%09ds", int64(t)/int64(Second), int64(t)%int64(Second))
}

// Seconds converts to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Scheduler is the scheduling surface the dataplane components (switch,
// capture engines, traffic driver) hold. It is the Kernel itself, or a
// wrapper around it that tags every schedule call with a provenance
// domain (prof.TagScheduler), so a campaign can attribute each site's
// events to it in the causal DAG without touching the components.
type Scheduler interface {
	Now() Time
	At(t Time, fn func()) Handle
	AtArg(t Time, fn func(any), arg any) Handle
	After(d Duration, fn func()) Handle
	AfterArg(d Duration, fn func(any), arg any) Handle
	Every(d Duration, fn func(Time)) *Ticker
}

// Slot lifecycle states.
const (
	slotFree uint8 = iota
	slotPending
	slotCancelled // cancelled but still referenced by a heap entry
)

// eventSlot is one arena cell. The ordering key (at, seq) lives in the
// heap entry, not here; the slot only carries the callback and its
// lifecycle state. Exactly one of fn and argFn is set.
type eventSlot struct {
	fn    func()
	argFn func(any)
	arg   any
	gen   uint32 // bumped on release so stale Handles cannot touch a reused slot
	state uint8
}

// heapEntry is one priority-queue element. Keeping the comparison key
// inline (instead of chasing a pointer per comparison) keeps sift
// operations in cache.
type heapEntry struct {
	at  Time
	seq uint64
	idx int32
}

func (a heapEntry) less(b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Kernel is the simulation engine. It is not safe for concurrent use; a
// simulation runs single-threaded by design. Run one Kernel per
// goroutine for parallel experiments.
type Kernel struct {
	now    Time
	seq    uint64
	nEvent uint64

	slots []eventSlot
	free  []int32 // free-list of arena slot indices
	heap  []heapEntry

	// Introspection counters (metrics sources for the obs layer).
	queueHighWater int
	lastTick       Time
	tickEvents     uint64
	maxTickEvents  uint64

	// Causal provenance (see prov.go). prov == nil means off.
	prov       func(ProvRecord)
	provParent uint64
	provTag    int32
}

// NewKernel returns a kernel at time zero with an empty queue.
func NewKernel() *Kernel {
	return &Kernel{lastTick: -1, provParent: NoProvParent}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// EventsProcessed reports how many events have been executed.
func (k *Kernel) EventsProcessed() uint64 { return k.nEvent }

// Pending reports how many events remain scheduled (including cancelled
// events not yet reaped).
func (k *Kernel) Pending() int { return len(k.heap) }

// QueueHighWatermark reports the maximum pending-event count observed,
// sampled at the first event of each distinct timestamp — a proxy for
// how bursty the schedule is and how much heap the kernel needs. The
// value is exported as sim_queue_high_watermark, so the sampling point
// is part of the metrics artifacts: moving it (say, to every push)
// would change every .prom/.jsonl/.csv dump.
func (k *Kernel) QueueHighWatermark() int { return k.queueHighWater }

// MaxEventsPerTick reports the largest number of events executed at a
// single virtual timestamp.
func (k *Kernel) MaxEventsPerTick() uint64 { return k.maxTickEvents }

// Seq returns the next schedule sequence number. Together with Now it
// is the kernel's progress marker: two deterministic runs that agree on
// (Now, Seq, EventsProcessed) have executed the same schedule prefix.
func (k *Kernel) Seq() uint64 { return k.seq }

// Checkpoint is the kernel's restorable progress marker: the virtual
// clock, the schedule sequence counter, and the number of events
// executed. The event queue itself holds closures and cannot be
// serialized; checkpoint/restore of a simulation therefore replays the
// deterministic schedule from zero and uses Checkpoint equality to
// verify that the replay reached exactly the checkpointed state (see
// internal/journal).
type Checkpoint struct {
	Now    Time   `json:"now_ns"`
	Seq    uint64 `json:"seq"`
	Events uint64 `json:"events"`
}

// Checkpoint captures the kernel's current progress marker.
func (k *Kernel) Checkpoint() Checkpoint {
	return Checkpoint{Now: k.now, Seq: k.seq, Events: k.nEvent}
}

// arenaSize reports the total number of arena slots ever grown (for
// tests and capacity introspection).
func (k *Kernel) arenaSize() int { return len(k.slots) }

// arenaFree reports how many arena slots sit on the free list (for leak
// tests: after a full drain, arenaFree == arenaSize).
func (k *Kernel) arenaFree() int { return len(k.free) }

// Handle identifies a scheduled event and allows cancellation. The zero
// Handle is valid and refers to no event.
type Handle struct {
	k   *Kernel
	idx int32
	gen uint32
}

// Cancel prevents the event from running. Cancelling an already-run or
// already-cancelled event is a no-op. It reports whether the event was
// still pending. The arena slot is reclaimed lazily when the queue
// reaches the cancelled entry, so cancellation never perturbs the
// ordering of other same-timestamp events.
func (h Handle) Cancel() bool {
	if h.k == nil {
		return false
	}
	s := &h.k.slots[h.idx]
	if s.gen != h.gen || s.state != slotPending {
		return false
	}
	s.state = slotCancelled
	// Drop callback references now so cancelled-but-unreaped events do
	// not pin memory; the slot itself is recycled on reap.
	s.fn, s.argFn, s.arg = nil, nil, nil
	return true
}

// alloc takes a slot from the free list, growing the arena if empty.
func (k *Kernel) alloc() int32 {
	if n := len(k.free); n > 0 {
		idx := k.free[n-1]
		k.free = k.free[:n-1]
		return idx
	}
	k.slots = append(k.slots, eventSlot{})
	return int32(len(k.slots) - 1)
}

// release returns a slot to the free list and invalidates outstanding
// handles to it.
func (k *Kernel) release(idx int32) {
	s := &k.slots[idx]
	s.fn, s.argFn, s.arg = nil, nil, nil
	s.state = slotFree
	s.gen++
	k.free = append(k.free, idx)
}

// schedule is the shared core of At/AtArg.
func (k *Kernel) schedule(t Time, fn func(), argFn func(any), arg any) Handle {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, k.now))
	}
	idx := k.alloc()
	s := &k.slots[idx]
	s.fn, s.argFn, s.arg = fn, argFn, arg
	s.state = slotPending
	k.heapPush(heapEntry{at: t, seq: k.seq, idx: idx})
	if k.prov != nil {
		k.prov(ProvRecord{Seq: k.seq, Parent: k.provParent, At: t, PC: CallbackPC(fn, argFn), Tag: k.provTag})
	}
	k.seq++
	return Handle{k: k, idx: idx, gen: s.gen}
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// that is always a logic error in a discrete-event model.
func (k *Kernel) At(t Time, fn func()) Handle {
	return k.schedule(t, fn, nil, nil)
}

// AtArg schedules fn(arg) at absolute time t. It is the zero-allocation
// variant of At for hot paths: because the argument rides in the event
// slot, the callback can be a plain function or a pre-bound method value
// and needs no capturing closure. Pointer-shaped args (e.g. *T) do not
// allocate when stored.
func (k *Kernel) AtArg(t Time, fn func(any), arg any) Handle {
	return k.schedule(t, nil, fn, arg)
}

// After schedules fn to run d nanoseconds from now.
func (k *Kernel) After(d Duration, fn func()) Handle {
	if d < 0 {
		panic("sim: negative delay")
	}
	return k.At(k.now+d, fn)
}

// AfterArg schedules fn(arg) d nanoseconds from now (see AtArg).
func (k *Kernel) AfterArg(d Duration, fn func(any), arg any) Handle {
	if d < 0 {
		panic("sim: negative delay")
	}
	return k.AtArg(k.now+d, fn, arg)
}

// Every schedules fn at now+d, then every d thereafter, until the returned
// Ticker is stopped. fn receives the firing time.
func (k *Kernel) Every(d Duration, fn func(Time)) *Ticker {
	return NewTicker(k, d, fn)
}

// NewTicker builds and starts a repeating event on any Scheduler — the
// shared implementation behind Kernel.Every and a tagging wrapper's
// Every, where each firing's reschedule must go back through the
// wrapper to keep its tag.
func NewTicker(s Scheduler, d Duration, fn func(Time)) *Ticker {
	if d <= 0 {
		panic("sim: non-positive period")
	}
	t := &Ticker{s: s, period: d, fn: fn}
	t.schedule()
	return t
}

// Ticker is a repeating event. Stop cancels future firings.
type Ticker struct {
	s       Scheduler
	period  Duration
	fn      func(Time)
	h       Handle
	stopped bool
}

// tickerFire re-dispatches through the ticker so each firing schedules
// the next without a fresh closure (one *Ticker serves the whole
// lifetime).
func tickerFire(a any) { a.(*Ticker).fire() }

func (t *Ticker) schedule() {
	t.h = t.s.AtArg(t.s.Now()+t.period, tickerFire, t)
}

func (t *Ticker) fire() {
	if t.stopped {
		return
	}
	t.fn(t.s.Now())
	if !t.stopped {
		t.schedule()
	}
}

// Stop cancels the ticker.
func (t *Ticker) Stop() {
	t.stopped = true
	t.h.Cancel()
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports false when the queue is empty.
func (k *Kernel) Step() bool {
	for len(k.heap) > 0 {
		e := k.heapPop()
		s := &k.slots[e.idx]
		if s.state == slotCancelled {
			k.release(e.idx) // reap
			continue
		}
		k.now = e.at
		fn, argFn, arg := s.fn, s.argFn, s.arg
		// Release before running: the callback may schedule new events
		// and immediately reuse this slot, and an in-flight event must
		// no longer be cancellable (gen bump invalidates its Handle).
		k.release(e.idx)
		k.nEvent++
		if e.at != k.lastTick {
			// Tick boundary: sample the pending-event count (the popped
			// event still counts — it has not finished running).
			if p := len(k.heap) + 1; p > k.queueHighWater {
				k.queueHighWater = p
			}
			k.lastTick = e.at
			k.tickEvents = 0
		}
		k.tickEvents++
		if k.tickEvents > k.maxTickEvents {
			k.maxTickEvents = k.tickEvents
		}
		// Mark the running event as the causal parent of anything its
		// handler schedules (two plain stores; provenance capture itself
		// is gated on the hook inside schedule).
		k.provParent = e.seq
		if argFn != nil {
			argFn(arg)
		} else {
			fn()
		}
		k.provParent = NoProvParent
		return true
	}
	return false
}

// Run executes events until the queue is empty.
func (k *Kernel) Run() {
	for k.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline. Events scheduled beyond the deadline stay queued.
func (k *Kernel) RunUntil(deadline Time) {
	for {
		at, ok := k.peek()
		if !ok || at > deadline {
			break
		}
		k.Step()
	}
	if k.now < deadline {
		k.now = deadline
	}
}

// RunFor advances the simulation by d.
func (k *Kernel) RunFor(d Duration) { k.RunUntil(k.now + d) }

// peek reports the timestamp of the next live event, reaping cancelled
// entries it skips over.
func (k *Kernel) peek() (Time, bool) {
	for len(k.heap) > 0 {
		e := k.heap[0]
		if k.slots[e.idx].state != slotCancelled {
			return e.at, true
		}
		k.heapPop()
		k.release(e.idx)
	}
	return 0, false
}

// --- 4-ary min-heap on (at, seq) ---
//
// A 4-ary layout halves the tree depth of a binary heap, trading a few
// extra comparisons per level for far fewer cache lines touched on
// sift-down — the dominant operation in a drain-heavy event loop.

const heapArity = 4

func (k *Kernel) heapPush(e heapEntry) {
	k.heap = append(k.heap, e)
	k.siftUp(len(k.heap) - 1)
}

func (k *Kernel) heapPop() heapEntry {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = heapEntry{}
	k.heap = h[:n]
	if n > 1 {
		k.siftDown(0)
	}
	return top
}

func (k *Kernel) siftUp(i int) {
	h := k.heap
	e := h[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if !e.less(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

func (k *Kernel) siftDown(i int) {
	h := k.heap
	n := len(h)
	e := h[i]
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		last := first + heapArity
		if last > n {
			last = n
		}
		min := first
		for c := first + 1; c < last; c++ {
			if h[c].less(h[min]) {
				min = c
			}
		}
		if !h[min].less(e) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = e
}
