// Command patchwork runs a profiling campaign on the simulated FABRIC
// federation: it builds the testbed, drives synthetic research workloads
// across its sites, runs the Patchwork coordinator (single- or
// all-experiment mode), and writes the gathered captures and logs to an
// output directory.
//
// Usage:
//
//	patchwork -mode all [-sites STAR,TACC] [-runs 4] [-out profile/]
//	patchwork -mode single -sites NCSA -out myslice/
//
// Self-healing campaign mode (journaled, resumable):
//
//	patchwork -remedy -faults plan.json -journal out/journal -out out/
//	patchwork -resume out/journal -out out/        # after a crash (exit 3)
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/campaign"
	"repro/internal/capture"
	patchwork "repro/internal/core"
	"repro/internal/faults"
	"repro/internal/health"
	"repro/internal/hostsim"
	"repro/internal/livemon"
	"repro/internal/obs"
	"repro/internal/remedy"
	"repro/internal/sim"
	"repro/internal/storefault"
	"repro/internal/telemetry"
	"repro/internal/testbed"
	"repro/internal/trafficgen"
)

func main() {
	var (
		mode        = flag.String("mode", "all", `"all" (all-experiment) or "single" (single-experiment)`)
		sitesFlag   = flag.String("sites", "", "comma-separated site list (required for -mode single)")
		runs        = flag.Int("runs", 3, "port-cycling runs per site")
		samples     = flag.Int("samples", 2, "samples per run")
		sampleSec   = flag.Int("sample-sec", 5, "sample duration in (virtual) seconds")
		method      = flag.String("method", "tcpdump", "capture method: tcpdump|dpdk|fpga")
		trunc       = flag.Int("truncate", 200, "stored snap length in bytes")
		seed        = flag.Uint64("seed", 1, "deterministic seed")
		out         = flag.String("out", "patchwork-out", "output directory")
		nSites      = flag.Int("federation-sites", 6, "number of sites in the simulated federation")
		nice        = flag.Bool("nice", false, "enable runtime footprint scaling (the nice-factor extension)")
		metrics     = flag.String("metrics", "", "write platform metrics to this file (.prom, .jsonl, or .csv by extension)")
		trace       = flag.String("trace", "", "write span trace JSONL to this file")
		faultPlan   = flag.String("faults", "", "JSON fault plan to inject during the run (see internal/faults)")
		watch       = flag.Bool("watch", false, "run the health monitor and print the live per-site status table during the run")
		watchSec    = flag.Int("watch-sec", 60, "status table cadence in (virtual) seconds with -watch")
		healthRules = flag.String("health-rules", "", "alert rule JSON for -watch (default: bundled rules)")
		storage     = flag.Bool("storage", false, "model each listener VM's storage stack (implied by -watch)")

		remedyOn   = flag.Bool("remedy", false, "run the self-healing remediation supervisor (journaled campaign mode)")
		remedyPol  = flag.String("remedy-policy", "", "remediation policy JSON (default: bundled policy; implies -remedy)")
		journalDir = flag.String("journal", "", "campaign journal directory (default <out>/journal; implies campaign mode)")
		resume     = flag.String("resume", "", "resume the campaign journaled in this directory")
		cpSec      = flag.Int("checkpoint-sec", 60, "checkpoint cadence in (virtual) seconds (campaign mode)")
		noKill     = flag.Bool("no-kill", false, "journal injected crash points without honoring them (baseline run)")
		provOn     = flag.Bool("provenance", false, "record the causal event DAG to <out>/prof/provenance.trace (campaign mode; analyze with pwprof)")
		storeChaos = flag.String("store-chaos", "", "storage fault-injection plan JSON (campaign mode); seeded by -seed, injection log lands in <out>/storefault.jsonl")

		serveAddr  = flag.String("serve", "", `serve live telemetry (metrics/status/SSE) on this address (":0" for an ephemeral port; bound address lands in <out>/livemon/addr)`)
		servePprof = flag.Bool("serve-pprof", false, "also mount /debug/pprof/ on the telemetry server")
		serveHold  = flag.Bool("serve-hold", false, "keep serving after the run finishes until SIGINT/SIGTERM")
	)
	flag.Parse()

	if *resume != "" || *remedyOn || *remedyPol != "" || *journalDir != "" || *provOn || *storeChaos != "" {
		os.Exit(campaignMain(campaignFlags{
			mode: *mode, sites: *sitesFlag, runs: *runs, samples: *samples,
			sampleSec: *sampleSec, method: *method, trunc: *trunc, seed: *seed,
			out: *out, nSites: *nSites, nice: *nice, metrics: *metrics,
			faultPlan: *faultPlan, healthRules: *healthRules,
			remedyPolicy: *remedyPol, journalDir: *journalDir, resume: *resume,
			checkpointSec: *cpSec, noKill: *noKill,
			provenance: *provOn, storeChaos: *storeChaos,
			serveAddr: *serveAddr, servePprof: *servePprof, serveHold: *serveHold,
		}))
	}

	var live *livemon.Server
	var holdSig chan os.Signal
	if *serveAddr != "" {
		var lerr error
		if live, holdSig, lerr = newLiveServer(*out, *serveAddr, *servePprof, *serveHold); lerr != nil {
			fatal(lerr)
		}
		defer live.Close()
	}

	var m patchwork.Mode
	switch *mode {
	case "all":
		m = patchwork.AllExperiment
	case "single":
		m = patchwork.SingleExperiment
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
	var capMethod capture.Method
	switch *method {
	case "tcpdump":
		capMethod = capture.MethodTcpdump
	case "dpdk":
		capMethod = capture.MethodDPDK
	case "fpga":
		capMethod = capture.MethodFPGADPDK
	default:
		fatal(fmt.Errorf("unknown capture method %q", *method))
	}

	// Build a federation slice of the default 28-site layout.
	k := sim.NewKernel()
	full := testbed.DefaultFederation(k, *seed)
	specs := make([]testbed.SiteSpec, 0, *nSites)
	for i, s := range full.Sites() {
		if i >= *nSites {
			break
		}
		specs = append(specs, s.Spec)
	}
	k = sim.NewKernel()
	fed, err := testbed.NewFederation(k, specs)
	if err != nil {
		fatal(err)
	}

	// Observability: registry and tracer stamp everything in sim time, so
	// two runs with the same seed emit byte-identical files.
	var reg *obs.Registry
	var tracer *obs.Tracer
	if *metrics != "" || *watch || live != nil {
		reg = obs.NewKernelRegistry(k)
		obs.CollectKernel(reg, k)
		fed.SetObs(reg)
	}
	if *trace != "" || *watch {
		tracer = obs.NewKernelTracer(k)
	}

	// Fault injection: the plan is part of the experiment's replayable
	// input — same plan + same seed reproduces the run byte-for-byte.
	var injector *faults.Engine
	if *faultPlan != "" {
		plan, err := faults.Load(*faultPlan)
		if err != nil {
			fatal(err)
		}
		injector, err = faults.NewEngine(k, *seed, plan)
		if err != nil {
			fatal(err)
		}
		if reg != nil {
			injector.SetObs(reg)
		}
		if err := injector.Arm(fed); err != nil {
			fatal(err)
		}
	}

	// Health monitoring: sliding windows, alert rules, and the flight
	// recorder all run inside the kernel, so the "live" view advances in
	// sim time and stays deterministic for a fixed seed.
	var monitor *health.Monitor
	if *watch {
		rules := health.DefaultRules()
		if *healthRules != "" {
			data, err := os.ReadFile(*healthRules)
			if err != nil {
				fatal(err)
			}
			if rules, err = health.ParseBytes(data); err != nil {
				fatal(err)
			}
		}
		var err error
		monitor, err = health.NewMonitor(k, reg, tracer, health.Config{Rules: rules})
		if err != nil {
			fatal(err)
		}
		monitor.Start()
		k.Every(sim.Duration(*watchSec)*sim.Second, func(sim.Time) {
			if err := monitor.WriteStatus(os.Stdout); err != nil {
				fatal(err)
			}
		})
	}

	store := telemetry.NewStore()
	poller := telemetry.NewPoller(k, store, 30*sim.Second)
	profiles := trafficgen.MakeSiteProfiles(*seed, len(fed.Sites()))
	var drivers []*patchwork.TrafficDriver
	for i, s := range fed.Sites() {
		poller.Watch(s.Switch)
		gen := trafficgen.NewGenerator(profiles[i], *seed+uint64(i))
		d := patchwork.NewTrafficDriver(k, s, gen, nil)
		d.WindowFrames = 150
		drivers = append(drivers, d)
		d.Start()
	}
	poller.Start()

	var siteList []string
	if *sitesFlag != "" {
		siteList = strings.Split(*sitesFlag, ",")
	}
	cfg := patchwork.Config{
		Mode:           m,
		Sites:          siteList,
		SampleDuration: sim.Duration(*sampleSec) * sim.Second,
		SampleInterval: sim.Duration(2**sampleSec) * sim.Second,
		SamplesPerRun:  *samples,
		Runs:           *runs,
		TruncateBytes:  *trunc,
		Method:         capMethod,
		Seed:           *seed,
		Obs:            reg,
		Tracer:         tracer,
		Faults:         injector,
	}
	pcaps := &pcapFiles{dir: *out}
	cfg.PcapSink = pcaps
	if *storage || *watch {
		cfg.Storage = &hostsim.Config{}
	}
	if monitor != nil {
		cfg.LogSink = monitor
	}
	if *nice {
		cfg.Nice = &patchwork.NicePolicy{ScaleDownFreeNICs: 0, ScaleUpFreeNICs: 1}
	}
	coord, err := patchwork.NewCoordinator(fed, store, poller, cfg)
	if err != nil {
		fatal(err)
	}
	var prof *patchwork.Profile
	if live == nil {
		prof, err = coord.Run()
		if err != nil {
			fatal(err)
		}
	} else {
		// With live telemetry the drive loop is explicit: publishing
		// happens between kernel steps, never as a scheduled event, so
		// the run's outputs match an unserved run byte-for-byte.
		live.Attach(reg, monitor)
		var runErr error
		finished := false
		coord.Start(func(p *patchwork.Profile, err error) {
			prof, runErr = p, err
			finished = true
		})
		var publishNext sim.Time
		for !finished {
			if !k.Step() {
				fatal(fmt.Errorf("simulation stalled before completion"))
			}
			if k.Now() >= publishNext {
				live.PublishTick(k.Now())
				publishNext = k.Now() + live.Interval()
			}
		}
		live.PublishTick(k.Now())
		if runErr != nil {
			fatal(runErr)
		}
	}
	for _, d := range drivers {
		d.Stop()
	}
	poller.Stop()

	if err := cmp.Or(pcaps.err, writeProfile(*out, prof)); err != nil {
		fatal(err)
	}
	if *metrics != "" {
		if err := writeMetrics(*metrics, reg); err != nil {
			fatal(err)
		}
		fmt.Printf("metrics written to %s\n", *metrics)
	}
	if *trace != "" {
		if err := writeTrace(*trace, tracer); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s (%d spans)\n", *trace, tracer.Len())
	}
	if monitor != nil {
		monitor.Stop()
		fmt.Println("final health status:")
		if err := monitor.WriteStatus(os.Stdout); err != nil {
			fatal(err)
		}
		if err := writeHealthArtifacts(*out, monitor); err != nil {
			fatal(err)
		}
	}
	if injector != nil {
		fmt.Printf("faults injected: %s\n", injector.Summary())
	}
	fmt.Printf("profile complete: %d sites in %v of virtual time\n",
		len(prof.Bundles), prof.Finished-prof.Started)
	for _, b := range prof.Bundles {
		fmt.Printf("  %-8s outcome=%-10s instances=%d/%d captures=%d ports=%v\n",
			b.Site, b.Outcome, b.InstancesGranted, b.InstancesRequested,
			b.Captures, b.PortsSampled)
	}
	fmt.Printf("success rate: %.0f%%\n", prof.SuccessRate()*100)
	for _, b := range prof.Bundles {
		for _, ev := range b.ScaleEvents {
			fmt.Printf("  %s nice: %v\n", b.Site, ev)
		}
	}
	fmt.Printf("output written to %s\n", *out)
	if live != nil && *serveHold {
		holdServe(live, holdSig)
	}
}

// pcapFiles is the CLI's pcap sink: it writes each capture to
// <dir>/<site>/capture-NN.pcap as it is harvested, so raw captures never
// pile up in memory. It keeps going past a failed write (a full disk
// should cost one capture, not the rest) and keeps the first error.
type pcapFiles struct {
	dir string
	err error
}

func (p *pcapFiles) WritePcap(site string, index int, data []byte) {
	siteDir := filepath.Join(p.dir, site)
	err := os.MkdirAll(siteDir, 0o755)
	if err == nil {
		err = os.WriteFile(filepath.Join(siteDir, fmt.Sprintf("capture-%02d.pcap", index)), data, 0o644)
	}
	if p.err == nil {
		p.err = err
	}
}

// writeProfile persists each bundle's run log (the pcaps were written
// during the run by pcapFiles).
func writeProfile(dir string, prof *patchwork.Profile) error {
	for _, b := range prof.Bundles {
		siteDir := filepath.Join(dir, b.Site)
		if err := os.MkdirAll(siteDir, 0o755); err != nil {
			return err
		}
		var logBuf strings.Builder
		for _, e := range b.Logs {
			logBuf.WriteString(e.String())
			logBuf.WriteByte('\n')
		}
		for _, c := range b.Congestion {
			fmt.Fprintf(&logBuf, "t=%v congestion %s->%s offered=%.0fB/s capacity=%.0fB/s\n",
				c.At, c.MirroredPort, c.EgressPort, c.OfferedBps, c.CapacityBps)
		}
		if err := os.WriteFile(filepath.Join(siteDir, "run.log"), []byte(logBuf.String()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// writeMetrics exports the registry in the format the file extension
// names: Prometheus text (.prom, also the fallback), JSONL, or CSV.
func writeMetrics(path string, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	switch filepath.Ext(path) {
	case ".jsonl":
		err = reg.WriteMetricsJSONL(f)
	case ".csv":
		err = reg.WriteCSV(f)
	default:
		err = reg.WritePrometheus(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeHealthArtifacts persists the alert log and every flight-recorder
// dump under <out>/health/.
func writeHealthArtifacts(dir string, m *health.Monitor) error {
	healthDir := filepath.Join(dir, "health")
	if err := os.MkdirAll(healthDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(healthDir, "alerts.jsonl"))
	if err != nil {
		return err
	}
	err = m.WriteAlertLog(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	for _, d := range m.Dumps() {
		if err := os.WriteFile(filepath.Join(healthDir, d.Name+".jsonl"), d.Data, 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("health artifacts written to %s (%d alerts, %d dumps)\n",
		healthDir, len(m.Events()), len(m.Dumps()))
	return nil
}

// writeTrace exports the span tree as JSONL.
func writeTrace(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = tr.WriteJSONL(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// campaignFlags carries the flag values into campaign mode.
type campaignFlags struct {
	mode, sites                      string
	runs, samples, sampleSec, trunc  int
	method                           string
	seed                             uint64
	out                              string
	nSites                           int
	nice                             bool
	metrics, faultPlan, healthRules  string
	remedyPolicy, journalDir, resume string
	checkpointSec                    int
	noKill, provenance               bool
	storeChaos                       string
	serveAddr                        string
	servePprof, serveHold            bool
}

// campaignMain runs the journaled, self-healing campaign path and
// returns the process exit code: 0 on completion, 3 on a crash-point
// abort (resume the journal directory to continue), 1 on error.
func campaignMain(fl campaignFlags) int {
	var live *livemon.Server
	var holdSig chan os.Signal
	if fl.serveAddr != "" {
		var lerr error
		if live, holdSig, lerr = newLiveServer(fl.out, fl.serveAddr, fl.servePprof, fl.serveHold); lerr != nil {
			fmt.Fprintln(os.Stderr, "patchwork:", lerr)
			return 1
		}
		defer live.Close()
	}
	// The nil-interface trap: passing a typed nil *livemon.Server as a
	// campaign.LiveSink would make the != nil check inside run() true.
	var sink campaign.LiveSink
	if live != nil {
		sink = live
	}
	pcaps := &pcapFiles{dir: fl.out}
	exec := campaign.Exec{PcapSink: pcaps}
	if fl.provenance {
		exec.ProvenancePath = filepath.Join(fl.out, "prof", "provenance.trace")
	}
	// Storage chaos: every journal write goes through the fault-injecting
	// filesystem. Seeded by the campaign seed, so a rerun with the same
	// plan replays the same injections; the log is the receipt.
	var chaos *storefault.Chaos
	if fl.storeChaos != "" {
		plan, perr := storefault.Load(fl.storeChaos)
		if perr != nil {
			fmt.Fprintln(os.Stderr, "patchwork:", perr)
			return 1
		}
		if chaos, perr = storefault.NewChaos(nil, fl.seed, plan); perr != nil {
			fmt.Fprintln(os.Stderr, "patchwork:", perr)
			return 1
		}
		exec.FS = chaos
		defer func() {
			if err := writeChaosLog(fl.out, chaos); err != nil {
				fmt.Fprintln(os.Stderr, "patchwork:", err)
			} else {
				fmt.Printf("storage chaos: %s (log in %s)\n",
					chaos.Summary(), filepath.Join(fl.out, "storefault.jsonl"))
			}
		}()
	}
	var res *campaign.Result
	var err error
	if fl.resume != "" {
		res, err = campaign.ResumeExecLive(fl.resume, !fl.noKill, exec, sink)
	} else {
		spec, serr := specFromFlags(fl)
		if serr != nil {
			fmt.Fprintln(os.Stderr, "patchwork:", serr)
			return 1
		}
		dir := fl.journalDir
		if dir == "" {
			dir = filepath.Join(fl.out, "journal")
		}
		res, err = campaign.RunExecLive(spec, dir, !fl.noKill, exec, sink)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "patchwork:", err)
		return 1
	}
	if res.Replayed > 0 {
		fmt.Printf("resume: replayed and verified %d journaled records\n", res.Replayed)
	}
	if res.Crashed {
		fmt.Fprintf(os.Stderr, "patchwork: campaign crashed at t=%v (injected crash point)\n", res.CrashedAt)
		fmt.Fprintf(os.Stderr, "patchwork: journal preserved in %s — resume with: patchwork -resume %s\n",
			res.Dir, res.Dir)
		if live != nil && fl.serveHold {
			holdServe(live, holdSig)
		}
		return 3
	}

	// Artifact writers: a failed write is counted per artifact (feeding
	// the storage-errors health rule and the live telemetry plane) and
	// reported, but does not stop the remaining artifacts from being
	// attempted — a full disk should cost one output, not all of them.
	wrote := func(artifact string, err error) bool {
		if err == nil {
			return true
		}
		if res.Registry != nil {
			res.Registry.Counter("patchwork_storage_errors_total", obs.L("artifact", artifact)).Inc()
		}
		fmt.Fprintf(os.Stderr, "patchwork: writing %s artifacts: %v\n", artifact, err)
		return false
	}
	ok := wrote("pcap", cmp.Or(pcaps.err, writeProfile(fl.out, res.Profile)))
	if fl.metrics != "" {
		if wrote("metrics", writeMetrics(fl.metrics, res.Registry)) {
			fmt.Printf("metrics written to %s\n", fl.metrics)
		} else {
			ok = false
		}
	}
	ok = wrote("health", writeHealthArtifacts(fl.out, res.Monitor)) && ok
	if res.Supervisor != nil {
		ok = wrote("remedy", writeRemedyArtifacts(fl.out, res.Supervisor)) && ok
	}
	if res.Injector != nil {
		fmt.Printf("faults injected: %s\n", res.Injector.Summary())
	}
	if fl.provenance {
		fmt.Printf("provenance trace: %d events in %s (analyze with pwprof)\n",
			res.ProvRecords, exec.ProvenancePath)
	}
	if !ok {
		return 1
	}
	prof := res.Profile
	fmt.Printf("campaign complete: %d sites in %v of virtual time (journal %s)\n",
		len(prof.Bundles), prof.Finished-prof.Started, res.Dir)
	fmt.Printf("success rate: %.0f%%\n", prof.SuccessRate()*100)
	if live != nil && fl.serveHold {
		holdServe(live, holdSig)
	}
	return 0
}

// specFromFlags assembles the campaign manifest from the CLI flags.
func specFromFlags(fl campaignFlags) (campaign.Spec, error) {
	spec := campaign.Spec{
		Mode:            fl.mode,
		Runs:            fl.runs,
		Samples:         fl.samples,
		SampleSec:       fl.sampleSec,
		IntervalSec:     2 * fl.sampleSec,
		TruncateBytes:   fl.trunc,
		Method:          fl.method,
		Seed:            fl.seed,
		FederationSites: fl.nSites,
		Nice:            fl.nice,
		CheckpointSec:   fl.checkpointSec,
	}
	if fl.sites != "" {
		spec.Sites = strings.Split(fl.sites, ",")
	}
	if fl.faultPlan != "" {
		plan, err := faults.Load(fl.faultPlan)
		if err != nil {
			return spec, err
		}
		spec.Faults = &plan
	}
	if fl.healthRules != "" {
		data, err := os.ReadFile(fl.healthRules)
		if err != nil {
			return spec, err
		}
		spec.HealthRules = json.RawMessage(data)
	}
	pol := remedy.DefaultPolicy()
	if fl.remedyPolicy != "" {
		var err error
		if pol, err = remedy.LoadPolicy(fl.remedyPolicy); err != nil {
			return spec, err
		}
	}
	spec.Remedy = &pol
	return spec, nil
}

// writeRemedyArtifacts persists the remediation action log and a
// summary under <out>/remedy/.
func writeRemedyArtifacts(dir string, sup *remedy.Supervisor) error {
	remedyDir := filepath.Join(dir, "remedy")
	if err := os.MkdirAll(remedyDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(remedyDir, "actions.jsonl"))
	if err != nil {
		return err
	}
	err = sup.WriteActionLog(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	var sb strings.Builder
	outcomes := sup.Outcomes()
	keys := make([]string, 0, len(outcomes))
	for k := range outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s %d\n", k, outcomes[k])
	}
	for _, site := range sup.Quarantined() {
		fmt.Fprintf(&sb, "quarantined %s\n", site)
	}
	if err := os.WriteFile(filepath.Join(remedyDir, "summary.txt"), []byte(sb.String()), 0o644); err != nil {
		return err
	}
	fmt.Printf("remediation artifacts written to %s (%d decisions, %d quarantined)\n",
		remedyDir, len(sup.Actions()), len(sup.Quarantined()))
	return nil
}

// writeChaosLog persists the storage-fault injection log so same-seed
// reruns can be diffed injection-for-injection.
func writeChaosLog(dir string, chaos *storefault.Chaos) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "storefault.jsonl"))
	if err != nil {
		return err
	}
	err = chaos.WriteLogJSONL(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "patchwork:", err)
	os.Exit(1)
}
