// Package switchsim models a FABRIC top-of-rack Ethernet switch (the role
// played by Cisco 5700-series and Ciena 8190 switches on the real
// testbed). The model is deliberately narrow: it implements exactly the
// features Patchwork consumes — duplex ports with line rates, SNMP-style
// octet/frame counters, and port mirroring with egress-queue tail drop.
//
// The overflow arithmetic follows Section 6.2.2 of the paper: when both
// directions of a mirrored port are cloned into the transmit channel of a
// single egress port, frames are dropped at the switch whenever
// Mirrored(Tx) + Mirrored(Rx) exceeds the egress channel's line rate.
package switchsim

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/units"
)

// Direction selects one or both channels of a duplex port.
type Direction uint8

// Directions. On FABRIC, a port's Rx is traffic arriving at the switch
// from the attached device; Tx is traffic the switch sends to it.
const (
	DirRx Direction = 1 << iota
	DirTx
	DirBoth = DirRx | DirTx
)

// String names the direction.
func (d Direction) String() string {
	switch d {
	case DirRx:
		return "rx"
	case DirTx:
		return "tx"
	case DirBoth:
		return "both"
	default:
		return fmt.Sprintf("Direction(%d)", uint8(d))
	}
}

// PortRole distinguishes downlinks (to servers in the same rack) from
// uplinks (to other FABRIC sites).
type PortRole uint8

// Port roles.
const (
	RoleDownlink PortRole = iota
	RoleUplink
)

// String names the role.
func (r PortRole) String() string {
	if r == RoleUplink {
		return "uplink"
	}
	return "downlink"
}

// Frame is a frame crossing the switch. Data may be nil for rate-only
// modeling; Size is always authoritative.
type Frame struct {
	Data []byte
	Size int
}

// NewFrame wraps real packet bytes.
func NewFrame(data []byte) Frame { return Frame{Data: data, Size: len(data)} }

// Counters are cumulative per-channel statistics, equivalent to the SNMP
// ifHCOutOctets/ifHCInOctets family that FABRIC's telemetry polls.
type Counters struct {
	RxBytes, RxFrames uint64
	TxBytes, TxFrames uint64
	// TxDrops counts frames dropped at this port's egress queue; mirror
	// overflow shows up here.
	TxDrops uint64
	// DownDrops counts frames that arrived while the port was
	// administratively or fault-injection down (link flap).
	DownDrops uint64
}

// Receiver consumes frames delivered out of a switch port's Tx channel
// (e.g. a capture NIC).
type Receiver interface {
	// DeliverFrame is called when the frame's last byte leaves the port.
	DeliverFrame(now sim.Time, f Frame)
}

// ReceiverFunc adapts a function to Receiver.
type ReceiverFunc func(now sim.Time, f Frame)

// DeliverFrame calls the function.
func (fn ReceiverFunc) DeliverFrame(now sim.Time, f Frame) { fn(now, f) }

// Port is one duplex switch port.
type Port struct {
	Name     string
	Role     PortRole
	LineRate units.BitRate

	counters Counters

	// Egress (Tx channel) modeling: a finite queue drained at LineRate.
	queueCap  int64    // bytes the egress queue can hold
	queueFree sim.Time // virtual time at which the queue drains empty
	receiver  Receiver
	sw        *Switch

	// down marks a flapped link: frames transiting (either direction) are
	// dropped, as are mirror clones destined for it.
	down bool
}

// Down reports whether the port's link is currently down.
func (p *Port) Down() bool {
	p.sw.mu.Lock()
	defer p.sw.mu.Unlock()
	return p.down
}

// DefaultEgressQueueBytes is the default per-port egress buffer. Shallow
// ToR buffers are what make mirror congestion observable.
const DefaultEgressQueueBytes = 12 * 1024 * 1024 // 12 MB, typical ToR class

// Counters returns a snapshot of the port's counters.
func (p *Port) Counters() Counters {
	p.sw.mu.Lock()
	defer p.sw.mu.Unlock()
	return p.counters
}

// SetReceiver attaches a frame consumer to the port's Tx channel.
func (p *Port) SetReceiver(r Receiver) {
	p.sw.mu.Lock()
	defer p.sw.mu.Unlock()
	p.receiver = r
}

// Switch is a top-of-rack switch. Methods are safe for concurrent use,
// though simulations typically drive it from a single goroutine.
type Switch struct {
	Name string

	mu      sync.Mutex
	sched   sim.Scheduler
	ports   map[string]*Port
	order   []string // deterministic iteration order
	mirrors map[string]*MirrorSession
	obsReg  *obs.Registry

	// Clone-delivery pool: free list of delivery records plus the method
	// value dispatched through sim.Kernel.AtArg, bound once in New so the
	// per-clone path allocates no closure.
	cloneFree *cloneDelivery
	cloneFn   func(any)

	// cloneFault, when set, drops a mirror clone whenever it returns true
	// — the mirror-table corruption injection point (internal/faults).
	cloneFault func(now sim.Time) bool
}

// cloneDelivery carries one mirrored frame from the egress queue to its
// receiver. Records recycle through Switch.cloneFree (under mu).
type cloneDelivery struct {
	r    Receiver
	at   sim.Time
	f    Frame
	next *cloneDelivery
}

// SetCloneFault installs (or, with nil, removes) a per-clone fault hook:
// returning true silently discards that mirrored copy, modeling a
// corrupted mirror-table entry. Original traffic is unaffected.
func (s *Switch) SetCloneFault(f func(now sim.Time) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cloneFault = f
}

// SetPortDown flaps the named port's link state. While down, frames
// transiting the port in either direction are dropped (counted in
// DownDrops), and mirror clones destined for it are counted as clone
// drops. Mirror sessions survive a flap, as on a real switch: the
// configuration persists, the traffic does not.
func (s *Switch) SetPortDown(name string, down bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.ports[name]
	if !ok {
		return fmt.Errorf("switchsim: no port %q on %q", name, s.Name)
	}
	p.down = down
	return nil
}

// SetObs attaches a metrics registry. Mirror sessions started afterwards
// count cloned frames and egress-queue overflows into it; with no
// registry (the default) cloning pays a single nil check.
func (s *Switch) SetObs(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obsReg = reg
	if reg != nil {
		reg.Help("switchsim_mirror_cloned_total", "mirrored frames enqueued on the egress channel")
		reg.Help("switchsim_mirror_clone_drops_total", "mirrored frames dropped to egress-queue overflow")
		reg.Help("switchsim_mirror_fault_drops_total", "mirrored frames dropped to injected mirror-table corruption")
	}
}

// New creates a switch bound to a scheduler — the simulation kernel, or
// a wrapper around it that tags the switch's events with a provenance
// domain (prof.TagScheduler).
func New(name string, sched sim.Scheduler) *Switch {
	s := &Switch{
		Name:    name,
		sched:   sched,
		ports:   make(map[string]*Port),
		mirrors: make(map[string]*MirrorSession),
	}
	s.cloneFn = s.deliverClone
	return s
}

// SetScheduler rebinds the switch to a different scheduler. Used when a
// campaign wraps each site's scheduler with its provenance tag after
// the federation is built; must not be called while the simulation is
// running.
func (s *Switch) SetScheduler(sched sim.Scheduler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sched = sched
}

// AddPort creates a port. Adding a duplicate name panics: port layout is
// static configuration, so that is a programming error.
func (s *Switch) AddPort(name string, role PortRole, rate units.BitRate) *Port {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.ports[name]; dup {
		panic(fmt.Sprintf("switchsim: duplicate port %q on %q", name, s.Name))
	}
	p := &Port{Name: name, Role: role, LineRate: rate, queueCap: DefaultEgressQueueBytes, sw: s}
	s.ports[name] = p
	s.order = append(s.order, name)
	return p
}

// Port returns the named port, or nil.
func (s *Switch) Port(name string) *Port {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ports[name]
}

// Ports returns all ports in creation order.
func (s *Switch) Ports() []*Port {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Port, 0, len(s.order))
	for _, n := range s.order {
		out = append(out, s.ports[n])
	}
	return out
}

// PortNames returns the port names in creation order.
func (s *Switch) PortNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.order...)
}

// MirrorSession clones one port's traffic to another port's Tx channel.
// FABRIC allows a port to be mirrored by at most one session at a time,
// which is why Patchwork must cycle mirrors rather than share them.
type MirrorSession struct {
	Mirrored   string
	Directions Direction
	Egress     string
	// CloneDrops counts mirrored frames lost to egress overflow — the
	// incomplete-sample signal Patchwork detects via telemetry.
	CloneDrops uint64
	// FaultDrops counts mirrored frames lost to injected mirror-table
	// corruption (SetCloneFault).
	FaultDrops uint64
	// Cloned counts mirrored frames successfully enqueued.
	Cloned uint64

	// Obs counters, resolved at StartMirror (nil without a registry).
	clonedC, dropsC, faultDropsC *obs.Counter
}

// ErrMirrorConflict is returned when a port is already mirrored or when
// the egress port is already in use as a mirror destination.
type ErrMirrorConflict struct{ Port string }

func (e ErrMirrorConflict) Error() string {
	return fmt.Sprintf("switchsim: port %q already participates in a mirror session", e.Port)
}

// StartMirror begins cloning traffic crossing mirrored (in the given
// directions) to egress's Tx channel.
func (s *Switch) StartMirror(mirrored string, dirs Direction, egress string) (*MirrorSession, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.ports[mirrored]; !ok {
		return nil, fmt.Errorf("switchsim: no port %q on %q", mirrored, s.Name)
	}
	if _, ok := s.ports[egress]; !ok {
		return nil, fmt.Errorf("switchsim: no port %q on %q", egress, s.Name)
	}
	if mirrored == egress {
		return nil, fmt.Errorf("switchsim: cannot mirror %q to itself", mirrored)
	}
	if _, busy := s.mirrors[mirrored]; busy {
		return nil, ErrMirrorConflict{mirrored}
	}
	for _, m := range s.mirrors {
		if m.Egress == egress || m.Mirrored == egress {
			return nil, ErrMirrorConflict{egress}
		}
	}
	m := &MirrorSession{Mirrored: mirrored, Directions: dirs, Egress: egress}
	if s.obsReg != nil {
		labels := []obs.Label{
			obs.L("switch", s.Name), obs.L("mirrored", mirrored), obs.L("egress", egress),
		}
		m.clonedC = s.obsReg.Counter("switchsim_mirror_cloned_total", labels...)
		m.dropsC = s.obsReg.Counter("switchsim_mirror_clone_drops_total", labels...)
		m.faultDropsC = s.obsReg.Counter("switchsim_mirror_fault_drops_total", labels...)
	}
	s.mirrors[mirrored] = m
	return m, nil
}

// StopMirror removes the mirror session on the given mirrored port. It
// reports whether a session existed.
func (s *Switch) StopMirror(mirrored string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.mirrors[mirrored]; !ok {
		return false
	}
	delete(s.mirrors, mirrored)
	return true
}

// Mirrors returns the active sessions sorted by mirrored port name.
func (s *Switch) Mirrors() []*MirrorSession {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*MirrorSession, 0, len(s.mirrors))
	for _, m := range s.mirrors {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Mirrored < out[j].Mirrored })
	return out
}

// Transit records a frame crossing a port in the given direction,
// updating counters and cloning to any mirror session. This is the
// injection point used by the traffic generator: a frame flowing from
// VM A (port P1) to VM B (port P2) is a DirRx transit on P1 and a DirTx
// transit on P2.
func (s *Switch) Transit(port string, dir Direction, f Frame) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.ports[port]
	if !ok {
		return fmt.Errorf("switchsim: no port %q on %q", port, s.Name)
	}
	now := s.sched.Now()
	if p.down {
		p.counters.DownDrops++
		return nil
	}
	if dir&DirRx != 0 {
		p.counters.RxBytes += uint64(f.Size)
		p.counters.RxFrames++
	}
	if dir&DirTx != 0 {
		p.counters.TxBytes += uint64(f.Size)
		p.counters.TxFrames++
	}
	if m := s.mirrors[port]; m != nil && dir&m.Directions != 0 {
		s.cloneLocked(now, m, f)
	}
	return nil
}

// cloneLocked enqueues a mirrored copy on the egress port's Tx channel,
// dropping on queue overflow. Must hold s.mu.
func (s *Switch) cloneLocked(now sim.Time, m *MirrorSession, f Frame) {
	if s.cloneFault != nil && s.cloneFault(now) {
		m.FaultDrops++
		m.faultDropsC.IncAt(now)
		return
	}
	eg := s.ports[m.Egress]
	if eg.down {
		m.CloneDrops++
		m.dropsC.IncAt(now)
		eg.counters.TxDrops++
		return
	}
	// Queue backlog in virtual time: how long until the egress channel
	// drains what is already queued.
	if eg.queueFree < now {
		eg.queueFree = now
	}
	backlogNanos := int64(eg.queueFree - now)
	backlogBytes := eg.LineRate.BytesInNanos(backlogNanos)
	if backlogBytes+int64(f.Size) > eg.queueCap {
		m.CloneDrops++
		m.dropsC.IncAt(now)
		eg.counters.TxDrops++
		return
	}
	txNanos := eg.LineRate.TransmitNanos(f.Size)
	eg.queueFree += sim.Time(txNanos)
	m.Cloned++
	m.clonedC.IncAt(now)
	eg.counters.TxBytes += uint64(f.Size)
	eg.counters.TxFrames++
	if r := eg.receiver; r != nil {
		cd := s.cloneFree
		if cd == nil {
			cd = new(cloneDelivery)
		} else {
			s.cloneFree = cd.next
		}
		cd.r, cd.at, cd.f = r, eg.queueFree, f
		s.sched.AtArg(eg.queueFree, s.cloneFn, cd)
	}
}

// deliverClone hands a mirrored frame to its receiver (the AtArg
// callback) and returns the record to the pool.
func (s *Switch) deliverClone(a any) {
	cd := a.(*cloneDelivery)
	r, at, f := cd.r, cd.at, cd.f
	s.mu.Lock()
	cd.r, cd.f = nil, Frame{}
	cd.next = s.cloneFree
	s.cloneFree = cd
	s.mu.Unlock()
	r.DeliverFrame(at, f)
}
