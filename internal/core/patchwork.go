// Package patchwork implements the paper's primary contribution: a
// user-deployed traffic capture and analysis platform for a federated
// testbed. To the testbed, Patchwork looks like any other experiment: it
// allocates VMs and dedicated NICs through the slice allocator, sets up
// port mirrors at each site's switch, captures (truncated) traffic with
// one of three capture methods, detects switch congestion from telemetry,
// and bundles compressed pcaps and logs for the coordinator to gather.
//
// The package mirrors the paper's four-phase workflow (Section 6.2):
// Setup (discovery, request formulation, iterative back-off), Sampling
// (runs of samples with port cycling), Gathering (compressed bundles),
// and Analysis (performed offline by the analysis package).
package patchwork

import (
	"fmt"

	"repro/internal/capture"
	"repro/internal/faults"
	"repro/internal/hostsim"
	"repro/internal/obs"
	"repro/internal/retry"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// Mode selects whose traffic Patchwork observes.
type Mode uint8

// Modes ("an instance of the zero-one-infinity rule").
const (
	// SingleExperiment profiles only the invoking user's slice: Patchwork
	// runs on the sites where that slice holds resources.
	SingleExperiment Mode = iota
	// AllExperiment profiles every experiment on the testbed. This
	// requires a discretionary permission from the testbed operator.
	AllExperiment
)

// String names the mode.
func (m Mode) String() string {
	if m == AllExperiment {
		return "all-experiment"
	}
	return "single-experiment"
}

// Config parameterizes one profiling run. Zero values take the defaults
// from the paper's deployment (Section 8.2): 20-second samples at
// 5-minute intervals, 200-byte truncation.
type Config struct {
	// Mode selects single- or all-experiment profiling.
	Mode Mode
	// Sites restricts profiling to these sites. Empty means every site in
	// all-experiment mode; in single-experiment mode it is the user's
	// slice sites and must be non-empty.
	Sites []string
	// SampleDuration is the length of one capture sample (default 20 s).
	SampleDuration sim.Duration
	// SampleInterval is the spacing between sample starts (default 5 min).
	SampleInterval sim.Duration
	// SamplesPerRun is the number of samples taken between port cycles
	// (default 3).
	SamplesPerRun int
	// Runs is the number of cycles (default 4).
	Runs int
	// TruncateBytes is the stored snap length (default 200).
	TruncateBytes int
	// Method is the capture implementation (default tcpdump, as in the
	// deployed system; DPDK and FPGA+DPDK available for line rate).
	Method capture.Method
	// CaptureCores is the DPDK worker core count (default 2, matching
	// the listener VM request).
	CaptureCores int
	// InstancesWanted is the number of listener instances (VM + dedicated
	// NIC) requested per site before back-off (default 2).
	InstancesWanted int
	// Selector picks which ports to mirror each cycle; nil selects the
	// default busiest-bias heuristic with N = 3.
	Selector PortSelector
	// Seed drives all stochastic decisions.
	Seed uint64
	// CrashProbability injects the "bug in Patchwork" failure class: each
	// site run crashes mid-sampling with this probability (default 0).
	CrashProbability float64
	// StorageLimitBytes caps captured bytes per instance; exceeding it
	// crashes the instance (watchdog catches it). Zero means the
	// allocated VM storage (100 GB).
	StorageLimitBytes int64
	// Nice enables runtime footprint scaling (the paper's future-work
	// "nice factor"); nil keeps the deployed system's fixed footprint.
	Nice *NicePolicy
	// Obs receives platform metrics (setup back-offs, ports mirrored,
	// congestion detections, run outcomes, per-level log counts, capture
	// engine counters). Nil — the default — disables metric recording; hot
	// paths then pay a single branch.
	Obs *obs.Registry
	// Tracer receives spans for the experiment/site/cycle/sample
	// hierarchy. Nil disables tracing.
	Tracer *obs.Tracer
	// Retry shapes the jittered-exponential back-off applied to transient
	// allocator failures during setup. Zero fields take the defaults of
	// retry.DefaultPolicy (first retry ~2 s, doubling to a 2-minute cap,
	// half jitter, 6 attempts).
	Retry retry.Policy
	// SetupTimeout bounds the setup phase per site. When it expires the
	// site stops retrying and degrades to the listeners it already holds
	// (or fails when it holds none). Default 10 minutes.
	SetupTimeout sim.Duration
	// Faults optionally injects scheduled adversity (see internal/faults).
	// The engine must be armed on the federation before the run starts;
	// site instances pull their capture-stall and storage-slowdown hooks
	// from it.
	Faults *faults.Engine
	// Storage, when set, models each listener VM's storage stack: every
	// site instance gets a hostsim.Host built from this config, capture
	// engines write through its page-cache/writev model, and the faults
	// engine's storage slowdowns apply to it. Nil — the default — keeps
	// the free (zero-latency) write path.
	Storage *hostsim.Config
	// LogSink, when set, receives a copy of every run-log line as it is
	// appended to a site bundle. The health monitor's flight recorder
	// implements this; anything else with the same shape works too.
	LogSink LogSink
	// Mutations, when set, receives every deployment mutation (listener
	// setup, sliver release, storage rotation, mirror re-arm) as it
	// happens, in deterministic order. The campaign journal implements
	// this to build its write-ahead log; nil disables the hook.
	Mutations MutationSink
	// PcapSink, when set, receives each capture's raw pcap stream as it
	// is harvested at the end of a cycle. Nil keeps the streams in
	// Bundle.Pcaps.
	PcapSink PcapSink
}

// PcapSink receives harvested pcap streams. Index numbers a site's
// captures from 0 in harvest order (egress-port order within a cycle).
// The sink owns pcap: the harvest never touches the buffer again. Calls
// come from the coordinator's kernel, one at a time.
type PcapSink interface {
	WritePcap(site string, index int, pcap []byte)
}

// DiscardPcaps is a PcapSink that drops every stream, for runs that
// only read a bundle's statistics and logs.
var DiscardPcaps PcapSink = discardPcaps{}

type discardPcaps struct{}

func (discardPcaps) WritePcap(string, int, []byte) {}

// MutationSink observes deployment mutations for crash-consistent
// journaling. Kind is an open string set ("setup", "release",
// "rotate-storage", …); site names the site mutated; note carries the
// deterministic detail line that lands in the WAL.
type MutationSink interface {
	Mutate(kind, site, note string)
}

// LogSink receives copies of run-log lines for live consumers (the
// health monitor's flight recorder). Implementations must tolerate
// calls from any sim-time context.
type LogSink interface {
	Logf(source, level, format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.SampleDuration == 0 {
		c.SampleDuration = 20 * sim.Second
	}
	if c.SampleInterval == 0 {
		c.SampleInterval = 5 * sim.Minute
	}
	if c.SampleInterval < c.SampleDuration {
		c.SampleInterval = c.SampleDuration
	}
	if c.SamplesPerRun == 0 {
		c.SamplesPerRun = 3
	}
	if c.Runs == 0 {
		c.Runs = 4
	}
	if c.TruncateBytes == 0 {
		c.TruncateBytes = 200
	}
	if c.CaptureCores == 0 {
		c.CaptureCores = 2
	}
	if c.InstancesWanted == 0 {
		c.InstancesWanted = 2
	}
	if c.Selector == nil {
		c.Selector = &BusiestBiasSelector{N: 3}
	}
	if c.StorageLimitBytes == 0 {
		c.StorageLimitBytes = 100 << 30
	}
	c.Retry = c.Retry.WithDefaults()
	if c.SetupTimeout == 0 {
		c.SetupTimeout = 10 * sim.Minute
	}
	if c.Retry.MaxElapsed == 0 {
		// The elapsed retry budget defaults to the setup deadline: a
		// policy with generous attempts must still not retry past the
		// phase that contains it.
		c.Retry.MaxElapsed = sim.Duration(c.SetupTimeout)
	}
	return c
}

// Validate rejects nonsensical configurations.
func (c Config) Validate() error {
	if c.Mode == SingleExperiment && len(c.Sites) == 0 {
		return fmt.Errorf("patchwork: single-experiment mode requires the slice's sites")
	}
	if c.SamplesPerRun < 0 || c.Runs < 0 || c.TruncateBytes < 0 {
		return fmt.Errorf("patchwork: negative sampling parameters")
	}
	if c.CrashProbability < 0 || c.CrashProbability > 1 {
		return fmt.Errorf("patchwork: crash probability %v out of range", c.CrashProbability)
	}
	if c.Nice != nil {
		if err := c.Nice.Validate(); err != nil {
			return err
		}
	}
	// Zero Retry fields mean "use the defaults", so validate the policy
	// as withDefaults will shape it.
	if err := c.Retry.WithDefaults().Validate(); err != nil {
		return err
	}
	if c.SetupTimeout < 0 {
		return fmt.Errorf("patchwork: negative setup timeout %v", c.SetupTimeout)
	}
	return nil
}

// Outcome classifies one site run, matching the categories of the
// paper's Fig. 10.
type Outcome uint8

// Outcomes.
const (
	// OutcomeSuccess: all requested instances ran to completion.
	OutcomeSuccess Outcome = iota
	// OutcomeDegraded: back-off reduced the instance count but profiling
	// completed.
	OutcomeDegraded
	// OutcomeFailed: no instances could be allocated (resource shortage
	// or back-end fault).
	OutcomeFailed
	// OutcomeIncomplete: Patchwork crashed mid-run (the watchdog
	// reported abnormal termination).
	OutcomeIncomplete
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeSuccess:
		return "success"
	case OutcomeDegraded:
		return "degraded"
	case OutcomeFailed:
		return "failed"
	case OutcomeIncomplete:
		return "incomplete"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// defaultRequest builds the slice request for n listener instances.
func defaultRequest(name string, n int) testbed.SliceRequest {
	req := testbed.SliceRequest{Name: name}
	for i := 0; i < n; i++ {
		req.VMs = append(req.VMs, testbed.DefaultListenerVM())
	}
	return req
}
