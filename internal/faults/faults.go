// Package faults is a seeded, sim-time fault-injection engine for the
// Patchwork reproduction. A Plan is a named, JSON-serializable schedule
// of adversity — transient allocator errors, site outages, switch port
// flaps, mirror-table corruption, slow storage, capture-core stalls —
// and an Engine drives it through injection points the substrate
// packages expose (testbed.Site.SetAllocFault, switchsim's SetPortDown /
// SetCloneFault, hostsim.Host.SetWriteFault, capture.Config.Stall).
//
// The failure schedule is a first-class, replayable experiment input:
// every stochastic decision flows through a child of one seeded
// rng.Source, and every trigger fires on the shared simulation kernel,
// so the same (plan, seed) pair reproduces the same faults at the same
// virtual nanoseconds — and therefore byte-identical experiment output.
package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// Window is a half-open virtual-time interval [FromSec, ToSec) in
// seconds. ToSec = 0 means open-ended (the fault persists to the end of
// the run).
type Window struct {
	FromSec float64 `json:"from_sec,omitempty"`
	ToSec   float64 `json:"to_sec,omitempty"`
}

// During reports whether now falls inside the window.
func (w Window) During(now sim.Time) bool {
	if now < secs(w.FromSec) {
		return false
	}
	return w.ToSec == 0 || now < secs(w.ToSec)
}

func (w Window) validate(what string) error {
	if w.FromSec < 0 || w.ToSec < 0 {
		return fmt.Errorf("faults: %s: negative window bound", what)
	}
	if w.ToSec != 0 && w.ToSec <= w.FromSec {
		return fmt.Errorf("faults: %s: window [%g, %g) is empty", what, w.FromSec, w.ToSec)
	}
	return nil
}

func secs(s float64) sim.Time { return sim.Time(s * float64(sim.Second)) }

// AllocatorTransient fails allocation attempts with ErrBackendTransient
// at the given rate while the window is open — the Sept 10/11 class of
// failures from the paper's Section 8.1.1, made schedulable.
type AllocatorTransient struct {
	// Site restricts the fault to one site; empty applies to every site.
	Site string `json:"site,omitempty"`
	// Rate is the per-attempt failure probability in (0, 1].
	Rate float64 `json:"rate"`
	Window
}

// SiteOutage takes a site's allocator hard down for the window: every
// attempt fails, deterministically.
type SiteOutage struct {
	Site string `json:"site"`
	Window
}

// PortFlap takes one switch port's link down at AtSec for DownSec,
// optionally repeating.
type PortFlap struct {
	Site string `json:"site"`
	Port string `json:"port"`
	// AtSec is the first flap's start.
	AtSec float64 `json:"at_sec"`
	// DownSec is how long the link stays down per flap.
	DownSec float64 `json:"down_sec"`
	// Repeat adds this many further flaps after the first.
	Repeat int `json:"repeat,omitempty"`
	// EverySec spaces repeated flap starts (must exceed DownSec).
	EverySec float64 `json:"every_sec,omitempty"`
}

// MirrorCorruption silently discards mirror clones at the given rate
// while the window is open, modeling a corrupted mirror-table entry.
type MirrorCorruption struct {
	Site string  `json:"site,omitempty"`
	Rate float64 `json:"rate"`
	Window
}

// StorageSlowdown multiplies writev latency on a site's capture hosts by
// Factor while the window is open (slow or failing storage writes).
type StorageSlowdown struct {
	Site string `json:"site,omitempty"`
	// Factor >= 1 scales each write's latency.
	Factor float64 `json:"factor"`
	Window
}

// CaptureStall steals StallSec of processing time from a capture core
// with probability Rate per frame while the window is open — the
// "capture process briefly loses the CPU" failure mode.
type CaptureStall struct {
	Site     string  `json:"site,omitempty"`
	Rate     float64 `json:"rate"`
	StallSec float64 `json:"stall_sec"`
	Window
}

// CrashPoint kills the whole campaign process at AtSec — the chaos
// lever behind crash-resume testing. The campaign journal appends a
// crash record before dying, and a later -resume replays past it (an
// already-journaled crash point does not fire twice).
type CrashPoint struct {
	AtSec float64 `json:"at_sec"`
}

// Plan is a complete, replayable fault schedule.
type Plan struct {
	// Name labels the plan in logs and metrics.
	Name string `json:"name,omitempty"`
	// AllocatorTransients, SiteOutages, … are the plan's fault entries,
	// applied in declaration order.
	AllocatorTransients []AllocatorTransient `json:"allocator_transients,omitempty"`
	SiteOutages         []SiteOutage         `json:"site_outages,omitempty"`
	PortFlaps           []PortFlap           `json:"port_flaps,omitempty"`
	MirrorCorruptions   []MirrorCorruption   `json:"mirror_corruptions,omitempty"`
	StorageSlowdowns    []StorageSlowdown    `json:"storage_slowdowns,omitempty"`
	CaptureStalls       []CaptureStall       `json:"capture_stalls,omitempty"`
	CrashPoints         []CrashPoint         `json:"crash_points,omitempty"`
}

// Empty reports whether the plan schedules nothing.
func (p Plan) Empty() bool {
	return len(p.AllocatorTransients) == 0 && len(p.SiteOutages) == 0 &&
		len(p.PortFlaps) == 0 && len(p.MirrorCorruptions) == 0 &&
		len(p.StorageSlowdowns) == 0 && len(p.CaptureStalls) == 0 &&
		len(p.CrashPoints) == 0
}

// Validate rejects malformed plans with an error naming the bad entry.
func (p Plan) Validate() error {
	for i, a := range p.AllocatorTransients {
		what := fmt.Sprintf("allocator_transients[%d]", i)
		if a.Rate <= 0 || a.Rate > 1 {
			return fmt.Errorf("faults: %s: rate %g outside (0, 1]", what, a.Rate)
		}
		if err := a.Window.validate(what); err != nil {
			return err
		}
	}
	for i, o := range p.SiteOutages {
		what := fmt.Sprintf("site_outages[%d]", i)
		if o.Site == "" {
			return fmt.Errorf("faults: %s: site required", what)
		}
		if o.ToSec == 0 {
			return fmt.Errorf("faults: %s: outage needs a closed window", what)
		}
		if err := o.Window.validate(what); err != nil {
			return err
		}
	}
	for i, f := range p.PortFlaps {
		what := fmt.Sprintf("port_flaps[%d]", i)
		switch {
		case f.Site == "" || f.Port == "":
			return fmt.Errorf("faults: %s: site and port required", what)
		case f.AtSec < 0 || f.DownSec <= 0:
			return fmt.Errorf("faults: %s: need at_sec >= 0 and down_sec > 0", what)
		case f.Repeat < 0:
			return fmt.Errorf("faults: %s: negative repeat", what)
		case f.Repeat > 0 && f.EverySec <= f.DownSec:
			return fmt.Errorf("faults: %s: every_sec %g must exceed down_sec %g", what, f.EverySec, f.DownSec)
		}
	}
	for i, m := range p.MirrorCorruptions {
		what := fmt.Sprintf("mirror_corruptions[%d]", i)
		if m.Rate <= 0 || m.Rate > 1 {
			return fmt.Errorf("faults: %s: rate %g outside (0, 1]", what, m.Rate)
		}
		if err := m.Window.validate(what); err != nil {
			return err
		}
	}
	for i, s := range p.StorageSlowdowns {
		what := fmt.Sprintf("storage_slowdowns[%d]", i)
		if s.Factor < 1 {
			return fmt.Errorf("faults: %s: factor %g must be >= 1", what, s.Factor)
		}
		if err := s.Window.validate(what); err != nil {
			return err
		}
	}
	for i, c := range p.CaptureStalls {
		what := fmt.Sprintf("capture_stalls[%d]", i)
		if c.Rate <= 0 || c.Rate > 1 {
			return fmt.Errorf("faults: %s: rate %g outside (0, 1]", what, c.Rate)
		}
		if c.StallSec <= 0 {
			return fmt.Errorf("faults: %s: stall_sec %g must be > 0", what, c.StallSec)
		}
		if err := c.Window.validate(what); err != nil {
			return err
		}
	}
	for i, c := range p.CrashPoints {
		if c.AtSec <= 0 {
			return fmt.Errorf("faults: crash_points[%d]: at_sec %g must be > 0", i, c.AtSec)
		}
	}
	return nil
}

// Parse decodes and validates a JSON plan. Unknown fields are errors so
// a typo in a plan file fails loudly instead of silently injecting
// nothing.
func Parse(data []byte) (Plan, error) {
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Plan{}, fmt.Errorf("faults: parsing plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// Load reads and parses a plan file.
func Load(path string) (Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Plan{}, fmt.Errorf("faults: %w", err)
	}
	p, err := Parse(data)
	if err != nil {
		return Plan{}, fmt.Errorf("%w (in %s)", err, path)
	}
	return p, nil
}

// Fault kinds, used as the obs label and the Injected() map key.
const (
	KindAllocatorTransient = "allocator-transient"
	KindSiteOutage         = "site-outage"
	KindPortFlap           = "port-flap"
	KindMirrorCorruption   = "mirror-corruption"
	KindStorageSlowdown    = "storage-slowdown"
	KindCaptureStall       = "capture-stall"
	KindCrashPoint         = "crash-point"
)

// kinds enumerates every fault kind, so SetObs can register every
// faults_injected_total series up front: the metrics dump lists each
// kind (zeros included) in a fixed order, and fault hooks on the frame
// path never resolve an instrument.
var kinds = []string{
	KindAllocatorTransient, KindSiteOutage, KindPortFlap,
	KindMirrorCorruption, KindStorageSlowdown, KindCaptureStall,
	KindCrashPoint,
}

// Engine drives one plan through a federation. Create it with NewEngine,
// optionally attach a metrics registry, then Arm it on the federation
// before the experiment starts. An Engine is bound to one kernel and one
// run; build a fresh one per run for replay.
type Engine struct {
	kernel *sim.Kernel
	plan   Plan
	root   *rng.Source
	armed  bool

	// crashFn, when set before Arm, receives each crash point's trigger
	// time. The campaign layer installs the journal-then-die behavior;
	// without a crash fn crash points only count as injections.
	crashFn func(at sim.Time)

	// stalls and slowdowns index per-site closures resolved at Arm time.
	stalls    map[string][]*stallState
	slowdowns map[string][]StorageSlowdown

	injected map[string]int64
	reg      *obs.Registry
	counters map[string]*obs.Counter
}

type stallState struct {
	spec CaptureStall
	r    *rng.Source
}

// NewEngine validates the plan and binds an engine to the kernel. All of
// the engine's randomness derives from seed, independently of any other
// seeded component.
func NewEngine(k *sim.Kernel, seed uint64, plan Plan) (*Engine, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Engine{
		kernel:   k,
		plan:     plan,
		root:     rng.New(seed ^ 0x6661756c74), // "fault"
		injected: make(map[string]int64, len(kinds)),
	}, nil
}

// Plan returns the engine's (validated) plan.
func (e *Engine) Plan() Plan { return e.plan }

// SetCrashFn installs the handler crash points fire through. Call
// before Arm; the handler runs on the kernel at each crash point's
// AtSec after the injection is counted.
func (e *Engine) SetCrashFn(f func(at sim.Time)) { e.crashFn = f }

// SetObs attaches a registry; injections are then counted per kind under
// faults_injected_total. Call before Arm.
func (e *Engine) SetObs(reg *obs.Registry) {
	e.reg = reg
	if reg != nil {
		reg.Help("faults_injected_total", "injected faults by kind")
		e.counters = make(map[string]*obs.Counter, len(kinds))
		for _, kind := range kinds {
			e.counters[kind] = reg.Counter("faults_injected_total", obs.L("kind", kind))
		}
	}
}

// note records one injected fault of the given kind at virtual time now.
// The counter is pre-resolved by SetObs, so hooks on the frame path do
// no label lookup; now stamps the series (see obs.Counter.IncAt).
func (e *Engine) note(kind string, now sim.Time) {
	e.injected[kind]++
	e.counters[kind].IncAt(now)
}

// Injected returns a copy of the per-kind injection counts so far
// (kinds with zero injections are omitted).
func (e *Engine) Injected() map[string]int64 {
	out := make(map[string]int64)
	for k, n := range e.injected {
		if n > 0 {
			out[k] = n
		}
	}
	return out
}

// InjectedTotal sums injections across kinds.
func (e *Engine) InjectedTotal() int64 {
	var total int64
	for _, n := range e.injected {
		total += n
	}
	return total
}

// Summary renders the per-kind counts, sorted by kind, for CLI output.
func (e *Engine) Summary() string {
	injected := e.Injected()
	if len(injected) == 0 {
		return "no faults injected"
	}
	names := make([]string, 0, len(injected))
	for k := range injected {
		names = append(names, k)
	}
	sort.Strings(names)
	s := ""
	for _, k := range names {
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", k, injected[k])
	}
	return s
}

// Arm installs the plan's hooks and schedules its timed events on the
// federation. It must be called exactly once, before the experiment
// starts; the entries take effect in declaration order, and sites are
// visited in federation declaration order, which (with the seeded rng)
// makes the whole schedule reproducible.
func (e *Engine) Arm(fed *testbed.Federation) error {
	if e.armed {
		return fmt.Errorf("faults: engine already armed")
	}
	e.armed = true
	e.stalls = make(map[string][]*stallState)
	e.slowdowns = make(map[string][]StorageSlowdown)

	resolve := func(name, what string) ([]*testbed.Site, error) {
		if name == "" {
			return fed.Sites(), nil
		}
		s := fed.Site(name)
		if s == nil {
			return nil, fmt.Errorf("faults: %s: unknown site %q", what, name)
		}
		return []*testbed.Site{s}, nil
	}

	// Transient allocator errors: one hook per site composing every
	// matching entry, each entry with its own child rng per site.
	type transient struct {
		spec AllocatorTransient
		r    *rng.Source
	}
	perSite := make(map[string][]*transient)
	for i, a := range e.plan.AllocatorTransients {
		sites, err := resolve(a.Site, fmt.Sprintf("allocator_transients[%d]", i))
		if err != nil {
			return err
		}
		for _, s := range sites {
			perSite[s.Spec.Name] = append(perSite[s.Spec.Name], &transient{spec: a, r: e.root.Split()})
		}
	}
	for _, s := range fed.Sites() {
		ts := perSite[s.Spec.Name]
		if len(ts) == 0 {
			continue
		}
		s.SetAllocFault(func(now sim.Time) error {
			for _, t := range ts {
				if t.spec.During(now) && t.r.Bool(t.spec.Rate) {
					e.note(KindAllocatorTransient, now)
					return testbed.ErrBackendTransient
				}
			}
			return nil
		})
	}

	// Scheduled site outages reuse the allocator's deterministic outage
	// windows; count one injection per outage at its onset.
	for i, o := range e.plan.SiteOutages {
		sites, err := resolve(o.Site, fmt.Sprintf("site_outages[%d]", i))
		if err != nil {
			return err
		}
		for _, s := range sites {
			s.AddOutage(secs(o.FromSec), secs(o.ToSec))
			onset := secs(o.FromSec)
			e.kernel.At(onset, func() { e.note(KindSiteOutage, onset) })
		}
	}

	// Port flaps: pairs of down/up events per repetition.
	for i, f := range e.plan.PortFlaps {
		site := fed.Site(f.Site)
		if site == nil {
			return fmt.Errorf("faults: port_flaps[%d]: unknown site %q", i, f.Site)
		}
		if site.Switch.Port(f.Port) == nil {
			return fmt.Errorf("faults: port_flaps[%d]: unknown port %q at %s", i, f.Port, f.Site)
		}
		sw := site.Switch
		port := f.Port
		for rep := 0; rep <= f.Repeat; rep++ {
			down := secs(f.AtSec + float64(rep)*f.EverySec)
			up := down + secs(f.DownSec)
			e.kernel.At(down, func() {
				e.note(KindPortFlap, down)
				_ = sw.SetPortDown(port, true)
			})
			e.kernel.At(up, func() { _ = sw.SetPortDown(port, false) })
		}
	}

	// Mirror corruption: one clone-fault hook per switch composing all
	// matching entries.
	type corruption struct {
		spec MirrorCorruption
		r    *rng.Source
	}
	perSwitch := make(map[string][]*corruption)
	for i, m := range e.plan.MirrorCorruptions {
		sites, err := resolve(m.Site, fmt.Sprintf("mirror_corruptions[%d]", i))
		if err != nil {
			return err
		}
		for _, s := range sites {
			perSwitch[s.Spec.Name] = append(perSwitch[s.Spec.Name], &corruption{spec: m, r: e.root.Split()})
		}
	}
	for _, s := range fed.Sites() {
		cs := perSwitch[s.Spec.Name]
		if len(cs) == 0 {
			continue
		}
		s.Switch.SetCloneFault(func(now sim.Time) bool {
			for _, c := range cs {
				if c.spec.During(now) && c.r.Bool(c.spec.Rate) {
					e.note(KindMirrorCorruption, now)
					return true
				}
			}
			return false
		})
	}

	// Storage slowdowns and capture stalls resolve lazily: the capture
	// engines and hosts that consume them are created mid-run, so Arm
	// only indexes the entries (and pre-splits stall rngs) per site.
	for i, sl := range e.plan.StorageSlowdowns {
		sites, err := resolve(sl.Site, fmt.Sprintf("storage_slowdowns[%d]", i))
		if err != nil {
			return err
		}
		for _, s := range sites {
			e.slowdowns[s.Spec.Name] = append(e.slowdowns[s.Spec.Name], sl)
		}
	}
	for i, c := range e.plan.CaptureStalls {
		sites, err := resolve(c.Site, fmt.Sprintf("capture_stalls[%d]", i))
		if err != nil {
			return err
		}
		for _, s := range sites {
			e.stalls[s.Spec.Name] = append(e.stalls[s.Spec.Name], &stallState{spec: c, r: e.root.Split()})
		}
	}

	// Crash points: counted, then handed to the campaign layer to
	// journal and kill the process.
	for _, c := range e.plan.CrashPoints {
		at := secs(c.AtSec)
		e.kernel.At(at, func() {
			e.note(KindCrashPoint, at)
			if e.crashFn != nil {
				e.crashFn(at)
			}
		})
	}
	return nil
}

// CaptureStallFn returns the per-frame stall hook for a site's capture
// engines (capture.Config.Stall), or nil when the plan schedules no
// stalls there. Engines created across cycles share the same underlying
// rng stream, keeping the schedule deterministic.
func (e *Engine) CaptureStallFn(site string) func(now sim.Time) sim.Duration {
	ss := e.stalls[site]
	if len(ss) == 0 {
		return nil
	}
	return func(now sim.Time) sim.Duration {
		for _, s := range ss {
			if s.spec.During(now) && s.r.Bool(s.spec.Rate) {
				e.note(KindCaptureStall, now)
				return secs(s.spec.StallSec)
			}
		}
		return 0
	}
}

// StorageFaultFn returns the writev-latency hook for a site's capture
// hosts (hostsim.Host.SetWriteFault), or nil when the plan schedules no
// slowdown there. Overlapping windows compound multiplicatively.
func (e *Engine) StorageFaultFn(site string) func(now sim.Time, n int, lat sim.Duration) sim.Duration {
	sls := e.slowdowns[site]
	if len(sls) == 0 {
		return nil
	}
	return func(now sim.Time, n int, lat sim.Duration) sim.Duration {
		out := lat
		for _, sl := range sls {
			if sl.During(now) {
				out = sim.Duration(float64(out) * sl.Factor)
			}
		}
		if out > lat {
			e.note(KindStorageSlowdown, now)
		}
		return out
	}
}
