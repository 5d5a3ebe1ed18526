// Quickstart: profile a single experiment's site with Patchwork.
//
// This example builds a two-site simulated federation, runs another
// researcher's workload across the first site's switch, and then uses
// Patchwork in single-experiment mode to capture that site's traffic. It
// finishes by digesting the captured pcaps and printing what was seen —
// the same flow a FABRIC user follows with the real tool.
//
// Run with: go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/analysis"
	patchwork "repro/internal/core"
	"repro/internal/pcap"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/testbed"
	"repro/internal/trafficgen"
	"repro/internal/units"
)

func main() {
	// A small federation: two sites, a handful of ports each.
	k := sim.NewKernel()
	fed, err := testbed.NewFederation(k, []testbed.SiteSpec{
		{Name: "STAR", Uplinks: 2, Downlinks: 8, DedicatedNICs: 2,
			Cores: 32, RAM: 128 * units.GB, Storage: units.TB},
		{Name: "TACC", Uplinks: 1, Downlinks: 8, DedicatedNICs: 2,
			Cores: 32, RAM: 128 * units.GB, Storage: units.TB},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Telemetry (MFlib stand-in) polls every switch.
	store := telemetry.NewStore()
	poller := telemetry.NewPoller(k, store, 30*sim.Second)
	for _, s := range fed.Sites() {
		poller.Watch(s.Switch)
	}
	poller.Start()

	// Someone else's experiment: a bulk-TCP workload crossing STAR.
	profile := trafficgen.MakeSiteProfiles(1, 1)[0]
	gen := trafficgen.NewGenerator(profile, 7)
	driver := patchwork.NewTrafficDriver(k, fed.Site("STAR"), gen, nil)
	driver.Start()

	// Patchwork, single-experiment mode, on the slice's site.
	cfg := patchwork.Config{
		Mode:           patchwork.SingleExperiment,
		Sites:          []string{"STAR"},
		SampleDuration: 5 * sim.Second,
		SampleInterval: 10 * sim.Second,
		SamplesPerRun:  2,
		Runs:           2,
		Seed:           42,
	}
	coord, err := patchwork.NewCoordinator(fed, store, poller, cfg)
	if err != nil {
		log.Fatal(err)
	}
	prof, err := coord.Run()
	if err != nil {
		log.Fatal(err)
	}
	driver.Stop()
	poller.Stop()

	// Gather + analyze: digest the bundle's captures.
	b := prof.Bundles[0]
	fmt.Printf("site %s: outcome=%v, sampled ports %v\n", b.Site, b.Outcome, b.PortsSampled)
	frames := 0
	stacks := map[string]int{}
	for _, raw := range b.Pcaps {
		rd, err := pcap.NewReader(bytes.NewReader(raw))
		if err != nil {
			log.Fatal(err)
		}
		acap, err := analysis.Digest(b.Site, rd)
		if err != nil {
			log.Fatal(err)
		}
		frames += len(acap.Records)
		for _, r := range acap.Records {
			stacks[r.StackString()]++
		}
	}
	fmt.Printf("captured %d frames across %d pcaps\n", frames, len(b.Pcaps))
	fmt.Println("header stacks observed:")
	for s, n := range stacks {
		fmt.Printf("  %6d  %s\n", n, s)
	}
}
