// Package campaign runs a complete, crash-consistent profiling
// campaign: it builds the simulated federation from a serializable
// Spec, wires observability, fault injection, health monitoring, and
// the remediation supervisor around the Patchwork coordinator, and
// journals every deployment mutation to a write-ahead log with
// periodic checkpoints (see internal/journal).
//
// The Spec is the campaign's entire input: it is written verbatim as
// the journal manifest, and Resume rebuilds an identical world from it.
// Because every stochastic decision flows from the Spec's seed and all
// scheduling happens on the sim kernel, a resumed campaign replays the
// dead campaign's history deterministically — the journal verifies the
// replay record-by-record — and then continues to a finish that is
// byte-identical to a run that never died.
package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"syscall"

	"repro/internal/capture"
	patchwork "repro/internal/core"
	"repro/internal/faults"
	"repro/internal/health"
	"repro/internal/hostsim"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/remedy"
	"repro/internal/sim"
	"repro/internal/storefault"
	"repro/internal/telemetry"
	"repro/internal/testbed"
	"repro/internal/trafficgen"
)

// Spec is the serializable campaign input — the journal manifest. Every
// field that influences the simulation must live here: resume rebuilds
// the world from the manifest alone, and anything omitted would make
// replay diverge.
type Spec struct {
	// Mode is "all" (all-experiment) or "single" (single-experiment).
	Mode string `json:"mode"`
	// Sites restricts profiling to these sites (required for "single").
	Sites []string `json:"sites,omitempty"`
	// FederationSites is the number of sites in the simulated federation.
	FederationSites int `json:"federation_sites"`
	// Runs, Samples, SampleSec, IntervalSec shape the sampling schedule.
	Runs        int `json:"runs"`
	Samples     int `json:"samples"`
	SampleSec   int `json:"sample_sec"`
	IntervalSec int `json:"interval_sec"`
	// TruncateBytes is the stored snap length.
	TruncateBytes int `json:"truncate_bytes"`
	// Method is the capture method: "tcpdump", "dpdk", or "fpga".
	Method string `json:"method"`
	// Instances is the listener count requested per site (0 = default).
	Instances int `json:"instances,omitempty"`
	// Seed drives every stochastic decision in the campaign.
	Seed uint64 `json:"seed"`
	// StorageLimitBytes caps captured bytes per instance (0 = default).
	StorageLimitBytes int64 `json:"storage_limit_bytes,omitempty"`
	// Nice enables runtime footprint scaling.
	Nice bool `json:"nice,omitempty"`
	// HealthRules overrides the bundled alert rules (raw rule JSON).
	HealthRules json.RawMessage `json:"health_rules,omitempty"`
	// Faults is the fault plan to inject; nil runs clean.
	Faults *faults.Plan `json:"faults,omitempty"`
	// Remedy is the remediation policy; nil runs without the supervisor.
	Remedy *remedy.Policy `json:"remedy,omitempty"`
	// CheckpointSec is the checkpoint cadence in sim seconds.
	CheckpointSec int `json:"checkpoint_sec"`
}

// WithDefaults fills the zero fields with the CLI defaults.
func (s Spec) WithDefaults() Spec {
	if s.Mode == "" {
		s.Mode = "all"
	}
	if s.FederationSites == 0 {
		s.FederationSites = 6
	}
	if s.Runs == 0 {
		s.Runs = 3
	}
	if s.Samples == 0 {
		s.Samples = 2
	}
	if s.SampleSec == 0 {
		s.SampleSec = 5
	}
	if s.IntervalSec == 0 {
		s.IntervalSec = 2 * s.SampleSec
	}
	if s.TruncateBytes == 0 {
		s.TruncateBytes = 200
	}
	if s.Method == "" {
		s.Method = "tcpdump"
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.CheckpointSec == 0 {
		s.CheckpointSec = 60
	}
	return s
}

// Validate rejects specs that cannot build a world.
func (s Spec) Validate() error {
	if s.Mode != "all" && s.Mode != "single" {
		return fmt.Errorf("campaign: unknown mode %q", s.Mode)
	}
	if _, err := s.method(); err != nil {
		return err
	}
	if s.FederationSites < 1 {
		return fmt.Errorf("campaign: federation needs at least one site")
	}
	if s.Runs < 0 || s.Samples < 0 || s.SampleSec < 1 || s.IntervalSec < 1 {
		return fmt.Errorf("campaign: invalid sampling schedule")
	}
	if s.CheckpointSec < 1 {
		return fmt.Errorf("campaign: checkpoint cadence %ds invalid", s.CheckpointSec)
	}
	if len(s.HealthRules) > 0 {
		if _, err := health.ParseBytes(s.HealthRules); err != nil {
			return fmt.Errorf("campaign: health rules: %w", err)
		}
	}
	if s.Faults != nil {
		if err := s.Faults.Validate(); err != nil {
			return err
		}
	}
	if s.Remedy != nil {
		if err := s.Remedy.Validate(); err != nil {
			return err
		}
	}
	return nil
}

func (s Spec) method() (capture.Method, error) {
	switch s.Method {
	case "tcpdump":
		return capture.MethodTcpdump, nil
	case "dpdk":
		return capture.MethodDPDK, nil
	case "fpga":
		return capture.MethodFPGADPDK, nil
	}
	return 0, fmt.Errorf("campaign: unknown capture method %q", s.Method)
}

func (s Spec) mode() (patchwork.Mode, error) {
	switch s.Mode {
	case "all":
		return patchwork.AllExperiment, nil
	case "single":
		return patchwork.SingleExperiment, nil
	}
	return 0, fmt.Errorf("campaign: unknown mode %q", s.Mode)
}

// Result is what a campaign run (or resume) produced. On a crash-point
// abort, Crashed is true and Profile is nil — resume the directory to
// continue.
type Result struct {
	Profile    *patchwork.Profile
	Registry   *obs.Registry
	Tracer     *obs.Tracer
	Monitor    *health.Monitor
	Supervisor *remedy.Supervisor // nil without a remediation policy
	Injector   *faults.Engine     // nil without a fault plan
	Federation *testbed.Federation
	Crashed    bool
	CrashedAt  sim.Time
	// Replayed is the number of WAL records verified during replay
	// (zero on a fresh run).
	Replayed int
	Dir      string
	// ProvRecords counts provenance records streamed to
	// Exec.ProvenancePath (zero when provenance was off).
	ProvRecords uint64
}

// LiveSink is the live telemetry plane's view of a running campaign
// (implemented by livemon.Server). The campaign calls PublishTick from
// its drive loop between kernel steps — never from a scheduled kernel
// event, so attaching a sink cannot change the event sequence and the
// campaign's artifacts stay byte-identical with or without one.
type LiveSink interface {
	// Attach wires the sim-time registry and health monitor before the
	// simulation starts.
	Attach(reg *obs.Registry, mon *health.Monitor)
	// Runtime is the sink's wall-clock registry, where the campaign
	// registers journal-progress gauges.
	Runtime() *obs.Registry
	// Interval is the sim-time cadence PublishTick should be driven at.
	Interval() sim.Duration
	// PublishTick snapshots and publishes; called on the sim goroutine.
	PublishTick(now sim.Time)
}

// profSink is the optional live-sink capability for serving the
// provenance trace (implemented by livemon.Server). Checked by type
// assertion so LiveSink implementations without it keep working
// unchanged. provFlush is safe to invoke from HTTP goroutines mid-run.
type profSink interface {
	// SetProfSources wires the provenance trace at provenancePath;
	// provFlush drains buffered frames before a download.
	SetProfSources(provenancePath string, provFlush func() error)
}

// Exec holds the knobs of a campaign run that are not part of its Spec:
// where artifacts go and how the crash-point harness probes it. Exec is
// never journaled, so a resume may pass a different Exec than the run
// it continues.
type Exec struct {
	// ProvenancePath, when set, streams the causal event DAG (one
	// record per schedule call, with the scheduling event as parent) to
	// a CRC-framed trace at this path. Pure observation: the trace is
	// byte-identical for the same seed, and enabling it does not
	// perturb the sim artifacts.
	ProvenancePath string
	// FS routes every campaign artifact write (journal WAL, checkpoints,
	// provenance trace) through an explicit filesystem seam — the
	// storage-chaos harness injects faults here. nil is the real disk.
	FS storefault.FS
	// CrashArm arms the crash-point matrix kill switch: immediately
	// after the fresh WAL record carrying sequence CrashAtSeq is
	// written, the journal writer plays dead — subsequent appends and
	// checkpoint swaps silently stop reaching disk, exactly as if the
	// process had been killed at that byte boundary — and the run
	// returns with Result.Crashed set. Resuming the directory must then
	// reproduce the uninterrupted run byte-for-byte.
	CrashArm   bool
	CrashAtSeq uint64
	// CrashAfterCheckpointSwap shifts the probed boundary: when
	// CrashAtSeq lands on a checkpoint record, the checkpoint file swap
	// completes before the writer dies (both sides of the rename are
	// crash points).
	CrashAfterCheckpointSwap bool
	// PcapSink receives each capture's raw pcap stream at harvest time
	// (see patchwork.Config.PcapSink). Nil keeps the streams in the
	// profile's bundles. Like the other Exec knobs it is not journaled:
	// a resumed campaign replays from the start and hands the sink the
	// same streams again.
	PcapSink patchwork.PcapSink
}

// defaultSpanCap bounds the tracer's retained spans/counter samples on
// long campaigns (satisfied drops count into
// patchwork_trace_dropped_total). Generous enough that short runs never
// trip it, so artifacts match earlier unbounded behavior.
const defaultSpanCap = 1 << 20

// defaultTraceCounters are the registry series sampled into the tracer
// as Chrome-trace counter events on every health tick, so flame views
// show load alongside spans.
var defaultTraceCounters = []string{
	"sim_events_processed",
	"capture_frames_captured_total",
	"capture_frames_dropped_total",
}

// Run starts a fresh campaign in dir (which must not already hold
// one). When kill is true, injected crash points abort the run —
// Result.Crashed reports the abort; resume the directory to continue.
// When kill is false, crash points are journaled but not honored: the
// uninterrupted baseline whose outputs a kill+resume pair must match.
func Run(spec Spec, dir string, kill bool) (*Result, error) {
	return RunExecLive(spec, dir, kill, Exec{}, nil)
}

// RunLive is Run with an optional live telemetry sink.
func RunLive(spec Spec, dir string, kill bool, live LiveSink) (*Result, error) {
	return RunExecLive(spec, dir, kill, Exec{}, live)
}

// RunExec is Run under an explicit execution strategy.
func RunExec(spec Spec, dir string, kill bool, exec Exec) (*Result, error) {
	return RunExecLive(spec, dir, kill, exec, nil)
}

// RunExecLive is Run with an execution strategy and an optional live
// telemetry sink.
func RunExecLive(spec Spec, dir string, kill bool, exec Exec, live LiveSink) (*Result, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	manifest, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	w, err := journal.CreateFS(exec.FS, dir, manifest)
	if err != nil {
		return nil, err
	}
	return run(spec, w, dir, kill, live, exec)
}

// Resume reopens the campaign journaled in dir, rebuilds the world from
// its manifest, replays the WAL prefix (verifying every regenerated
// record), and continues where the dead campaign stopped. Crash points
// already in the WAL are skipped; new ones abort again when kill is
// true.
func Resume(dir string, kill bool) (*Result, error) {
	return ResumeExecLive(dir, kill, Exec{}, nil)
}

// ResumeLive is Resume with an optional live telemetry sink.
func ResumeLive(dir string, kill bool, live LiveSink) (*Result, error) {
	return ResumeExecLive(dir, kill, Exec{}, live)
}

// ResumeExec is Resume under an explicit execution strategy. The
// strategy need not match the one the campaign crashed under: the WAL
// replay verifies the regenerated prefix either way.
func ResumeExec(dir string, kill bool, exec Exec) (*Result, error) {
	return ResumeExecLive(dir, kill, exec, nil)
}

// ResumeExecLive is Resume with an execution strategy and an optional
// live telemetry sink.
func ResumeExecLive(dir string, kill bool, exec Exec, live LiveSink) (*Result, error) {
	w, manifest, _, _, err := journal.OpenResumeFS(exec.FS, dir)
	if err != nil {
		return nil, err
	}
	var spec Spec
	if err := json.Unmarshal(manifest, &spec); err != nil {
		w.Close()
		return nil, fmt.Errorf("campaign: corrupt manifest: %w", err)
	}
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		w.Close()
		return nil, err
	}
	return run(spec, w, dir, kill, live, exec)
}

// campaign holds the run's journaling state shared by the mutation
// sink, the remedy sink, and the crash hook.
type campaign struct {
	k    *sim.Kernel
	w    *journal.Writer
	kill bool

	crashed   bool
	crashedAt sim.Time
	err       error // first journal/divergence error; aborts the drive loop
}

// Mutate implements core's MutationSink: every deployment mutation
// lands in the WAL in the order it happened.
func (c *campaign) Mutate(kind, site, note string) {
	if c.err != nil {
		return
	}
	if _, err := c.w.Append(c.k.Now(), kind, site, note); err != nil {
		c.err = err
	}
}

// remedyJournal is the supervisor's journal sink.
func (c *campaign) remedyJournal(now sim.Time, site, note string) error {
	if c.err != nil {
		return c.err
	}
	_, err := c.w.Append(now, journal.KindRemedy, site, note)
	if err != nil && c.err == nil {
		c.err = err
	}
	return err
}

// onCrashPoint journals the crash and, when killing is enabled and the
// record is new (not replayed from a previous life), aborts the drive
// loop — the simulation-level equivalent of the process dying.
func (c *campaign) onCrashPoint(at sim.Time) {
	if c.err != nil || c.crashed {
		return
	}
	replayed, err := c.w.Append(at, journal.KindCrash, "", "injected crash point")
	if err != nil {
		c.err = err
		return
	}
	if !replayed && c.kill {
		c.crashed, c.crashedAt = true, at
	}
}

// wireJournalGauges registers campaign-progress gauges on the sink's
// wall-clock registry: WAL append/replay/checkpoint counters and the
// checkpoint lag (sim time since the last checkpoint). They refresh on
// every scrape via a collector reading the writer's atomic stats.
func wireJournalGauges(r *obs.Registry, w *journal.Writer) {
	r.Help("patchwork_campaign_wal_appended", "WAL records appended by this life")
	r.Help("patchwork_campaign_wal_replayed", "WAL prefix records verified during resume replay")
	r.Help("patchwork_campaign_checkpoints", "checkpoints handled by this life")
	r.Help("patchwork_campaign_checkpoint_lag_sim_sec", "sim seconds between the last WAL record and the last checkpoint")
	appended := r.Gauge("patchwork_campaign_wal_appended")
	replayed := r.Gauge("patchwork_campaign_wal_replayed")
	checkpoints := r.Gauge("patchwork_campaign_checkpoints")
	lag := r.Gauge("patchwork_campaign_checkpoint_lag_sim_sec")
	r.RegisterCollector(func() {
		st := w.Stats()
		appended.Set(float64(st.Appended))
		replayed.Set(float64(st.Replayed))
		checkpoints.Set(float64(st.Checkpoints))
		lag.Set(float64(st.LastAppendSimNs-st.LastCheckpointSimNs) / float64(sim.Second))
	})
}

// run builds the world described by spec around the journal writer and
// drives it to completion, crash, or divergence.
func run(spec Spec, w *journal.Writer, dir string, kill bool, live LiveSink, exec Exec) (*Result, error) {
	defer w.Close()
	capMethod, err := spec.method()
	if err != nil {
		return nil, err
	}
	mode, err := spec.mode()
	if err != nil {
		return nil, err
	}

	// The federation is a slice of the default 28-site layout, rebuilt on
	// a fresh kernel so event sequence numbers start from zero.
	k := sim.NewKernel()
	full := testbed.DefaultFederation(k, spec.Seed)
	specs := make([]testbed.SiteSpec, 0, spec.FederationSites)
	for i, s := range full.Sites() {
		if i >= spec.FederationSites {
			break
		}
		specs = append(specs, s.Spec)
	}
	k = sim.NewKernel()

	// Causal provenance streams every schedule call from here on; the
	// hook is installed before the federation is built so the trace
	// covers setup events too.
	var pw *prof.Writer
	if exec.ProvenancePath != "" {
		if pw, err = prof.CreateTraceFS(exec.FS, exec.ProvenancePath); err != nil {
			return nil, err
		}
		defer pw.Close()
		k.SetProvenance(pw.Record)
	}

	fed, err := testbed.NewFederation(k, specs)
	if err != nil {
		return nil, err
	}

	// With provenance on, rebind each site's dataplane — switch,
	// capture engines, traffic driver — to a scheduler that tags its
	// schedule calls with the site, attributing the site's events to it
	// in the causal DAG. Must happen before any dataplane traffic is
	// scheduled.
	if pw != nil {
		for i, s := range fed.Sites() {
			tag := int32(i + 1)
			pw.DefTag(tag, s.Spec.Name)
			s.SetScheduler(prof.TagScheduler(k, tag))
		}
	}

	reg := obs.NewKernelRegistry(k)
	obs.CollectKernel(reg, k)
	fed.SetObs(reg)
	tracer := obs.NewKernelTracer(k)
	reg.Help("patchwork_trace_dropped_total", "spans and counter samples dropped by the tracer's memory cap")
	tracer.SetSpanCap(defaultSpanCap, reg.Counter("patchwork_trace_dropped_total"))

	c := &campaign{k: k, w: w, kill: kill}

	var injector *faults.Engine
	if spec.Faults != nil {
		injector, err = faults.NewEngine(k, spec.Seed, *spec.Faults)
		if err != nil {
			return nil, err
		}
		injector.SetObs(reg)
		injector.SetCrashFn(c.onCrashPoint)
		if err := injector.Arm(fed); err != nil {
			return nil, err
		}
	}

	rules := health.DefaultRules()
	if len(spec.HealthRules) > 0 {
		if rules, err = health.ParseBytes(spec.HealthRules); err != nil {
			return nil, err
		}
	}
	monitor, err := health.NewMonitor(k, reg, tracer, health.Config{
		Rules:         rules,
		TraceCounters: defaultTraceCounters,
	})
	if err != nil {
		return nil, err
	}
	monitor.Start()

	store := telemetry.NewStore()
	poller := telemetry.NewPoller(k, store, 30*sim.Second)
	profiles := trafficgen.MakeSiteProfiles(spec.Seed, len(fed.Sites()))
	var drivers []*patchwork.TrafficDriver
	for i, s := range fed.Sites() {
		poller.Watch(s.Switch)
		gen := trafficgen.NewGenerator(profiles[i], spec.Seed+uint64(i))
		d := patchwork.NewTrafficDriver(s.Scheduler(), s, gen, nil)
		d.WindowFrames = 150
		drivers = append(drivers, d)
		d.Start()
	}
	poller.Start()

	cfg := patchwork.Config{
		Mode:              mode,
		Sites:             spec.Sites,
		SampleDuration:    sim.Duration(spec.SampleSec) * sim.Second,
		SampleInterval:    sim.Duration(spec.IntervalSec) * sim.Second,
		SamplesPerRun:     spec.Samples,
		Runs:              spec.Runs,
		TruncateBytes:     spec.TruncateBytes,
		Method:            capMethod,
		InstancesWanted:   spec.Instances,
		Seed:              spec.Seed,
		StorageLimitBytes: spec.StorageLimitBytes,
		Obs:               reg,
		Tracer:            tracer,
		Faults:            injector,
		Storage:           &hostsim.Config{},
		LogSink:           monitor,
		Mutations:         c,
		PcapSink:          exec.PcapSink,
	}
	if spec.Nice {
		cfg.Nice = &patchwork.NicePolicy{ScaleDownFreeNICs: 0, ScaleUpFreeNICs: 1}
	}
	coord, err := patchwork.NewCoordinator(fed, store, poller, cfg)
	if err != nil {
		return nil, err
	}

	var sup *remedy.Supervisor
	if spec.Remedy != nil {
		sup, err = remedy.NewSupervisor(k, remedy.Config{
			Policy:  *spec.Remedy,
			Target:  coord,
			Seed:    spec.Seed,
			Obs:     reg,
			Logf:    monitor.Logf,
			Journal: c.remedyJournal,
		})
		if err != nil {
			return nil, err
		}
		sup.Attach(monitor)
	}

	// Storage-error accounting and graceful ENOSPC degradation: every
	// failed artifact write counts under patchwork_storage_errors_total
	// (watched by the bundled storage-errors health rule), and a full
	// volume pauses capture so the disk stops filling — the free-space
	// remediation evicts harvested bytes and resumes capture. The hook
	// fires only on write errors, so clean runs are byte-identical with
	// or without it.
	reg.Help("patchwork_storage_errors_total", "failed campaign artifact writes by artifact")
	w.SetErrorHook(func(op string, werr error) bool {
		reg.Counter("patchwork_storage_errors_total", obs.L("artifact", op)).Inc()
		if errors.Is(werr, syscall.ENOSPC) {
			n := coord.PauseCapture(true)
			monitor.Logf("campaign", "error",
				"journal %s hit ENOSPC: paused %d capture engines, retrying once", op, n)
			return true
		}
		monitor.Logf("campaign", "error", "journal %s failed: %v", op, werr)
		return false
	})
	if exec.CrashArm {
		w.SetCrashAfter(exec.CrashAtSeq, exec.CrashAfterCheckpointSwap)
	}

	replayed := w.Prefix()
	if _, err := w.Append(0, journal.KindCampaignStart, "",
		fmt.Sprintf("seed=%d sites=%d mode=%s", spec.Seed, len(fed.Sites()), spec.Mode)); err != nil {
		return nil, err
	}

	checkpoint := func(now sim.Time) {
		if c.err != nil || c.crashed {
			return
		}
		cp := journal.Checkpoint{
			Kernel: k.Checkpoint(),
			State:  stateDigests(fed, reg, monitor, sup),
		}
		if err := w.WriteCheckpoint(now, cp); err != nil {
			c.err = err
		}
	}
	k.Every(sim.Duration(spec.CheckpointSec)*sim.Second, checkpoint)

	// Live telemetry publishes from the drive loop, between kernel
	// steps, on the sim goroutine. Nothing is scheduled on the kernel:
	// the event sequence — and therefore every sim-time artifact — is
	// byte-identical whether or not a sink is attached.
	var publishNext sim.Time
	if live != nil {
		live.Attach(reg, monitor)
		wireJournalGauges(live.Runtime(), w)
		if ps, ok := live.(profSink); ok && pw != nil {
			ps.SetProfSources(exec.ProvenancePath, pw.Flush)
		}
	}

	var prof *patchwork.Profile
	var runErr error
	finished := false
	coord.Start(func(p *patchwork.Profile, err error) {
		prof, runErr = p, err
		finished = true
	})
	for !finished && !c.crashed && c.err == nil && !w.CrashSimulated() {
		if !k.Step() {
			return nil, fmt.Errorf("campaign: simulation stalled before completion")
		}
		if live != nil && k.Now() >= publishNext {
			live.PublishTick(k.Now())
			publishNext = k.Now() + live.Interval()
		}
	}
	if c.err != nil {
		return nil, c.err
	}
	if live != nil {
		// One final publish so the served view reflects the end state
		// (completion or the crash point).
		live.PublishTick(k.Now())
	}

	res := &Result{
		Registry: reg, Tracer: tracer, Monitor: monitor,
		Supervisor: sup, Injector: injector, Federation: fed,
		Replayed: replayed, Dir: dir,
	}
	if pw != nil {
		res.ProvRecords = pw.Records()
		if err := pw.Close(); err != nil {
			return nil, fmt.Errorf("campaign: provenance trace: %w", err)
		}
	}
	if c.crashed || w.CrashSimulated() {
		// The simulated process died here: no teardown, no final
		// checkpoint — exactly the state a real crash leaves behind.
		// (Either a fault-plan crash point fired, or the crash-point
		// matrix killed the journal writer at its armed WAL boundary.)
		res.Crashed, res.CrashedAt = true, c.crashedAt
		if !c.crashed {
			res.CrashedAt = k.Now()
		}
		return res, nil
	}
	if runErr != nil {
		return nil, runErr
	}
	for _, d := range drivers {
		d.Stop()
	}
	poller.Stop()
	monitor.Stop()

	checkpoint(k.Now())
	if c.err != nil {
		return nil, c.err
	}
	if _, err := w.Append(k.Now(), journal.KindCampaignEnd, "",
		fmt.Sprintf("sites=%d success_rate=%.2f", len(prof.Bundles), prof.SuccessRate())); err != nil {
		return nil, err
	}
	if w.CrashSimulated() {
		// The armed boundary landed on the teardown records (final
		// checkpoint or campaign end): the WAL tail is missing, so this
		// is a crash, not a completion — resume writes the tail for real.
		res.Crashed, res.CrashedAt = true, k.Now()
		return res, nil
	}
	if w.Replaying() {
		return nil, fmt.Errorf("campaign: finished with %d unreplayed WAL records — the journal is from a longer run",
			w.Prefix())
	}
	res.Profile = prof
	return res, nil
}

// stateDigests renders every stateful subsystem as a deterministic
// string: per-site free resources, a metrics-dump hash, alert and
// remediation counters. Replay verification string-compares these, so
// any nondeterminism shows up as a divergence error at the next
// checkpoint instead of silently corrupting the resumed run.
func stateDigests(fed *testbed.Federation, reg *obs.Registry, m *health.Monitor, sup *remedy.Supervisor) map[string]string {
	out := make(map[string]string)
	sites := fed.Sites()
	sorted := make([]*testbed.Site, len(sites))
	copy(sorted, sites)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Spec.Name < sorted[j].Spec.Name })
	for _, s := range sorted {
		out["testbed:"+s.Spec.Name] = fmt.Sprintf("nics=%d fpga=%d cores=%d storage=%d",
			s.FreeDedicatedNICs(), s.FreeFPGANICs(), s.FreeCores(), int64(s.FreeStorage()))
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err == nil {
		h := fnv.New64a()
		h.Write(buf.Bytes())
		out["metrics"] = fmt.Sprintf("fnv64a=%016x series=%d", h.Sum64(), bytes.Count(buf.Bytes(), []byte{'\n'}))
	}
	out["alerts"] = fmt.Sprintf("events=%d dumps=%d", len(m.Events()), len(m.Dumps()))
	if sup != nil {
		out["remedy"] = fmt.Sprintf("actions=%d quarantined=%d", len(sup.Actions()), len(sup.Quarantined()))
	}
	return out
}
