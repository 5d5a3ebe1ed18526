// Package testbed models the FABRIC federated testbed: sites with
// top-of-rack switches, worker-hosted resources (cores, RAM, storage,
// NICs), uplinks between sites, an information model for topology
// queries, a slice allocator with the failure modes Patchwork must
// tolerate, and a statistical workload model of slice activity calibrated
// to the paper's Section 5 study.
package testbed

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/switchsim"
	"repro/internal/units"
)

// NICClass distinguishes the reservable NIC types on FABRIC.
type NICClass uint8

// NIC classes.
const (
	// SharedConnectX is a ConnectX NIC multiplexed among many users.
	SharedConnectX NICClass = iota
	// DedicatedConnectX is a single-user dual-port ConnectX NIC — the
	// scarce resource Patchwork competes for (2-6 per site).
	DedicatedConnectX
	// AlveoFPGA is a Xilinx Alveo FPGA NIC, used by Patchwork for
	// offloaded preprocessing.
	AlveoFPGA
)

// String names the class.
func (c NICClass) String() string {
	switch c {
	case SharedConnectX:
		return "shared-connectx"
	case DedicatedConnectX:
		return "dedicated-connectx"
	case AlveoFPGA:
		return "alveo-fpga"
	default:
		return fmt.Sprintf("NICClass(%d)", uint8(c))
	}
}

// PortsPerNIC is the physical port count of FABRIC's dedicated NICs.
const PortsPerNIC = 2

// SiteSpec describes one site's inventory.
type SiteSpec struct {
	Name string
	// Uplinks is the number of switch ports connected to other sites.
	Uplinks int
	// Downlinks is the number of switch ports connected to this site's
	// own servers.
	Downlinks int
	// DedicatedNICs, SharedNICs, FPGANICs count reservable NICs.
	DedicatedNICs int
	SharedNICs    int
	FPGANICs      int
	// Cores, RAM, and Storage are aggregate worker capacity.
	Cores   int
	RAM     units.ByteSize
	Storage units.ByteSize
	// LineRate of switch ports.
	LineRate units.BitRate
}

// Site is a live site: its spec plus a switch and allocation state.
type Site struct {
	Spec   SiteSpec
	Switch *switchsim.Switch

	// sched is the scheduler the site's dataplane runs on: the shared
	// kernel by default, or a wrapper that tags the site's events with
	// its provenance domain (prof.TagScheduler).
	sched sim.Scheduler

	// Free capacity (allocations subtract, releases add back).
	freeCores    int
	freeRAM      units.ByteSize
	freeStorage  units.ByteSize
	freeFPGANICs int
	// nicFree is the pool of free dedicated-NIC IDs (0-based, ascending).
	// NICs have identity — a re-allocation can exclude the exact NICs a
	// failed sliver held via SliceRequest.AvoidNICs.
	nicFree []int

	// outages holds injected transient back-end failure windows.
	outages []outage
	// allocFault, when set, can veto any allocation attempt with an
	// error before capacity checks run. It is the probabilistic
	// injection point used by internal/faults; outages cover the
	// deterministic scheduled kind.
	allocFault func(now sim.Time) error

	slivers map[int]*Sliver
	nextID  int

	obsReg *obs.Registry
}

type outage struct{ from, to sim.Time }

// Federation is the set of FABRIC sites plus the simulation kernel they
// share.
type Federation struct {
	Kernel *sim.Kernel
	sites  []*Site
	byName map[string]*Site

	links       []*InterSiteLink
	usedUplinks map[string]bool // "site/port" -> connected
}

// NewFederation builds live sites from specs. Site names must be unique.
func NewFederation(k *sim.Kernel, specs []SiteSpec) (*Federation, error) {
	f := &Federation{Kernel: k, byName: make(map[string]*Site), usedUplinks: make(map[string]bool)}
	for _, spec := range specs {
		if spec.LineRate == 0 {
			spec.LineRate = 100 * units.Gbps
		}
		if _, dup := f.byName[spec.Name]; dup {
			return nil, fmt.Errorf("testbed: duplicate site %q", spec.Name)
		}
		sw := switchsim.New(spec.Name, k)
		for i := 0; i < spec.Uplinks; i++ {
			sw.AddPort(fmt.Sprintf("U%d", i+1), switchsim.RoleUplink, spec.LineRate)
		}
		for i := 0; i < spec.Downlinks; i++ {
			sw.AddPort(fmt.Sprintf("P%d", i+1), switchsim.RoleDownlink, spec.LineRate)
		}
		s := &Site{
			Spec:         spec,
			Switch:       sw,
			sched:        k,
			freeCores:    spec.Cores,
			freeRAM:      spec.RAM,
			freeStorage:  spec.Storage,
			freeFPGANICs: spec.FPGANICs,
			nicFree:      make([]int, spec.DedicatedNICs),
			slivers:      make(map[int]*Sliver),
		}
		for i := range s.nicFree {
			s.nicFree[i] = i
		}
		f.sites = append(f.sites, s)
		f.byName[spec.Name] = s
	}
	return f, nil
}

// SetObs attaches a metrics registry to every site (allocation-failure
// counters) and every site switch (mirror counters). Nil is the default
// and disables platform observability.
func (f *Federation) SetObs(reg *obs.Registry) {
	if reg != nil {
		reg.Help("testbed_alloc_failures_total", "slice allocation failures by site and cause")
	}
	for _, s := range f.sites {
		s.obsReg = reg
		s.Switch.SetObs(reg)
	}
}

// Scheduler returns the scheduler the site's dataplane events run on.
func (s *Site) Scheduler() sim.Scheduler { return s.sched }

// SetScheduler rebinds the site's dataplane — including its switch — to
// a new scheduler (the campaign's per-site provenance-tagging wrapper).
// Call before any dataplane traffic is scheduled.
func (s *Site) SetScheduler(sched sim.Scheduler) {
	s.sched = sched
	s.Switch.SetScheduler(sched)
}

// Sites returns all sites in declaration order.
func (f *Federation) Sites() []*Site { return f.sites }

// Site returns the named site, or nil.
func (f *Federation) Site(name string) *Site { return f.byName[name] }

// SiteNames returns site names in declaration order.
func (f *Federation) SiteNames() []string {
	out := make([]string, len(f.sites))
	for i, s := range f.sites {
		out[i] = s.Spec.Name
	}
	return out
}

// PortCount summarizes one site's switch ports for the information-model
// query behind Fig. 2.
type PortCount struct {
	Site      string
	Uplinks   int
	Downlinks int
}

// PortDistribution returns per-site port counts sorted by descending
// downlinks (the presentation order of Fig. 2).
func (f *Federation) PortDistribution() []PortCount {
	out := make([]PortCount, 0, len(f.sites))
	for _, s := range f.sites {
		out = append(out, PortCount{
			Site:      s.Spec.Name,
			Uplinks:   s.Spec.Uplinks,
			Downlinks: s.Spec.Downlinks,
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Downlinks > out[j].Downlinks })
	return out
}

// DefaultFederation builds a 28-site federation whose inventories follow
// the paper's study: most sites have a similar, small number of uplinks
// (1-4); every site has many more downlinks than uplinks; dedicated NICs
// number about 2-6 per site; a minority of sites host FPGA NICs (NCSA's
// published inventory — 10 dedicated NICs, 1 FPGA — is included by name).
// The layout is deterministic for a given seed.
func DefaultFederation(k *sim.Kernel, seed uint64) *Federation {
	r := rng.New(seed)
	names := []string{
		"STAR", "NCSA", "UCSD", "MICH", "MASS", "UTAH", "TACC", "WASH",
		"DALL", "SALT", "KANS", "ATLA", "CLEM", "GATECH", "INDI", "MAX",
		"PSC", "RUTG", "UKY", "FIU", "PRIN", "NEWY", "LOSA", "SEAT",
		"AMST", "BRIST", "CERN", "TOKY",
	}
	specs := make([]SiteSpec, 0, len(names))
	for _, name := range names {
		spec := SiteSpec{
			Name:          name,
			Uplinks:       1 + r.Intn(4),   // 1-4
			Downlinks:     10 + r.Intn(21), // 10-30
			DedicatedNICs: 2 + r.Intn(5),   // 2-6
			SharedNICs:    1,
			FPGANICs:      0,
			Cores:         128 + 64*r.Intn(8), // 128-576
			RAM:           units.ByteSize(512+256*r.Intn(6)) * units.GB,
			Storage:       units.ByteSize(20+10*r.Intn(30)) * units.TB,
			LineRate:      100 * units.Gbps,
		}
		if r.Bool(0.4) {
			spec.FPGANICs = 1
		}
		if name == "NCSA" {
			// Inventory published on the FABRIC portal (Section 3).
			spec.DedicatedNICs = 10
			spec.SharedNICs = 1
			spec.FPGANICs = 1
		}
		if name == "UKY" {
			// EDUKY analog: teaching site without dedicated NICs — the one
			// site Patchwork omits.
			spec.DedicatedNICs = 0
			spec.FPGANICs = 0
		}
		specs = append(specs, spec)
	}
	f, err := NewFederation(k, specs)
	if err != nil {
		panic(err) // unreachable: names are unique
	}
	return f
}
