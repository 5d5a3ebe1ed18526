// Command pwhealth is the health-monitoring companion to patchwork. It
// has two modes:
//
// Validate mode parses alert-rule JSON files without running anything,
// so CI and operators can check rule changes cheaply:
//
//	pwhealth -validate rules/*.json
//
// Check-prom mode validates Prometheus text-exposition files (exported
// artifacts or saved /metrics scrapes) for syntax and histogram
// monotonicity:
//
//	pwhealth -check-prom out/metrics.prom
//
// Run mode drives a profiling campaign on the simulated federation with
// the health monitor attached and renders the live per-site status
// table as virtual time advances, then the alert transitions and
// flight-recorder dump names:
//
//	pwhealth [-seed 1] [-federation-sites 3] [-faults plan.json] [-rules rules.json] [-watch-sec 30]
package main

import (
	"flag"
	"fmt"
	"os"

	patchwork "repro/internal/core"
	"repro/internal/faults"
	"repro/internal/health"
	"repro/internal/hostsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/testbed"
	"repro/internal/trafficgen"
)

func main() {
	var (
		validate  = flag.Bool("validate", false, "parse-check the rule files given as arguments and exit")
		checkProm = flag.Bool("check-prom", false, "validate the Prometheus text-exposition files given as arguments and exit")
		rulesPath = flag.String("rules", "", "alert rule JSON (default: bundled rules)")
		seed      = flag.Uint64("seed", 1, "deterministic seed")
		nSites    = flag.Int("federation-sites", 3, "number of sites in the simulated federation")
		runs      = flag.Int("runs", 3, "port-cycling runs per site")
		sampleSec = flag.Int("sample-sec", 5, "sample duration in (virtual) seconds")
		faultPlan = flag.String("faults", "", "JSON fault plan to inject during the run")
		watchSec  = flag.Int("watch-sec", 30, "status table cadence in (virtual) seconds")
	)
	flag.Parse()

	if *validate {
		os.Exit(validateRules(flag.Args()))
	}
	if *checkProm {
		os.Exit(checkPromFiles(flag.Args()))
	}

	rules := health.DefaultRules()
	if *rulesPath != "" {
		data, err := os.ReadFile(*rulesPath)
		if err != nil {
			fatal(err)
		}
		if rules, err = health.ParseBytes(data); err != nil {
			fatal(err)
		}
	}

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
	reg := obs.NewKernelRegistry(k)
	obs.CollectKernel(reg, k)
	fed.SetObs(reg)
	tracer := obs.NewKernelTracer(k)

	var injector *faults.Engine
	if *faultPlan != "" {
		plan, err := faults.Load(*faultPlan)
		if err != nil {
			fatal(err)
		}
		if injector, err = faults.NewEngine(k, *seed, plan); err != nil {
			fatal(err)
		}
		injector.SetObs(reg)
		if err := injector.Arm(fed); err != nil {
			fatal(err)
		}
	}

	monitor, err := health.NewMonitor(k, reg, tracer, health.Config{Rules: rules})
	if err != nil {
		fatal(err)
	}
	monitor.Start()
	k.Every(sim.Duration(*watchSec)*sim.Second, func(sim.Time) {
		if err := monitor.WriteStatus(os.Stdout); err != nil {
			fatal(err)
		}
	})

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

	cfg := patchwork.Config{
		Mode:           patchwork.AllExperiment,
		SampleDuration: sim.Duration(*sampleSec) * sim.Second,
		SampleInterval: sim.Duration(2**sampleSec) * sim.Second,
		SamplesPerRun:  2,
		Runs:           *runs,
		Seed:           *seed,
		Obs:            reg,
		Tracer:         tracer,
		Faults:         injector,
		Storage:        &hostsim.Config{},
		LogSink:        monitor,
		PcapSink:       patchwork.DiscardPcaps, // only health is reported
	}
	coord, err := patchwork.NewCoordinator(fed, store, poller, cfg)
	if err != nil {
		fatal(err)
	}
	if _, err := coord.Run(); err != nil {
		fatal(err)
	}
	for _, d := range drivers {
		d.Stop()
	}
	poller.Stop()
	monitor.Stop()

	fmt.Println("final health status:")
	if err := monitor.WriteStatus(os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Println("alert transitions:")
	if err := monitor.WriteAlertLog(os.Stdout); err != nil {
		fatal(err)
	}
	for _, d := range monitor.Dumps() {
		fmt.Printf("flight-recorder dump: %s (%d bytes)\n", d.Name, len(d.Data))
	}
	if injector != nil {
		fmt.Printf("faults injected: %s\n", injector.Summary())
	}
}

// validateRules parse-checks each file; with no arguments it checks the
// bundled default rule set. Returns the process exit code.
func validateRules(paths []string) int {
	if len(paths) == 0 {
		rs := health.DefaultRules()
		fmt.Printf("bundled defaults: %d signals, %d rules — ok\n", len(rs.Signals), len(rs.Rules))
		return 0
	}
	code := 0
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pwhealth: %v\n", err)
			code = 1
			continue
		}
		rs, err := health.ParseBytes(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pwhealth: %s: %v\n", p, err)
			code = 1
			continue
		}
		fmt.Printf("%s: %d signals, %d rules — ok\n", p, len(rs.Signals), len(rs.Rules))
	}
	return code
}

// checkPromFiles runs the exposition validator over each file. Returns
// the process exit code.
func checkPromFiles(paths []string) int {
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "pwhealth: -check-prom needs at least one file")
		return 2
	}
	code := 0
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pwhealth: %v\n", err)
			code = 1
			continue
		}
		n, err := obs.ValidateExposition(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "pwhealth: %s: %v\n", p, err)
			code = 1
			continue
		}
		fmt.Printf("%s: %d samples — ok\n", p, n)
	}
	return code
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pwhealth:", err)
	os.Exit(1)
}
