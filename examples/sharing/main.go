// Sharing: the paper's future-work features in action.
//
// Section 6.3 lists two design limitations of the deployed Patchwork:
// (1) mirrored ports cannot be shared — only one FABRIC user can mirror
// a given switch port at a time — and (2) resources are fixed at
// start-up, with no runtime scaling. This example demonstrates the two
// extensions this repository implements for them:
//
//   - MirrorScheduler time-multiplexes a hot port among three users'
//     capture leases;
//   - NicePolicy lets a running profile shrink its footprint when other
//     experiments need the site's dedicated NICs, and grow back later.
//
// Run with: go run ./examples/sharing
package main

import (
	"fmt"
	"log"

	patchwork "repro/internal/core"
	"repro/internal/sim"
	"repro/internal/switchsim"
	"repro/internal/telemetry"
	"repro/internal/testbed"
	"repro/internal/trafficgen"
	"repro/internal/units"
)

func main() {
	fmt.Println("=== 1. MirrorScheduler: three users share one mirrored port ===")
	mirrorSharing()
	fmt.Println("\n=== 2. NicePolicy: scaling the footprint under NIC pressure ===")
	niceScaling()
}

func mirrorSharing() {
	k := sim.NewKernel()
	sw := switchsim.New("S", k)
	for _, p := range []string{"P1", "P2", "P3", "P4"} {
		sw.AddPort(p, switchsim.RoleDownlink, 100*units.Gbps)
	}
	ms := patchwork.NewMirrorScheduler(k, sw)

	// Background traffic on the port everyone wants.
	tick := k.Every(50*sim.Millisecond, func(sim.Time) {
		_ = sw.Transit("P1", switchsim.DirRx, switchsim.Frame{Size: 1500})
	})

	for i, spec := range []struct{ user, egress string }{
		{"alice", "P2"}, {"bob", "P3"}, {"carol", "P4"},
	} {
		spec := spec
		var seen uint64
		_ = i
		err := ms.Request(&patchwork.MirrorLease{
			User: spec.user, Mirrored: "P1", Dirs: switchsim.DirRx,
			Egress: spec.egress, Duration: 5 * sim.Second,
			OnGrant: func(sess *switchsim.MirrorSession) {
				fmt.Printf("  t=%-14v %s granted P1 (egress %s)\n", k.Now(), spec.user, spec.egress)
				seen = sess.Cloned
			},
			OnRelease: func() {
				fmt.Printf("  t=%-14v %s released P1\n", k.Now(), spec.user)
				_ = seen
			},
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("  (queue after submission: active=%s pending=%d)\n",
		ms.ActiveUser("P1"), ms.PendingFor("P1"))
	// Stop the traffic ticker once all three leases have expired, so the
	// event queue drains.
	k.At(16*sim.Second, func() { tick.Stop() })
	k.Run()
	fmt.Printf("  leases granted: %d, of which %d had to queue\n", ms.Granted, ms.Queued)
}

func niceScaling() {
	k := sim.NewKernel()
	fed, err := testbed.NewFederation(k, []testbed.SiteSpec{{
		Name: "BUSY", Uplinks: 1, Downlinks: 10, DedicatedNICs: 3,
		Cores: 64, RAM: 256 * units.GB, Storage: 2 * units.TB,
	}})
	if err != nil {
		log.Fatal(err)
	}
	site := fed.Sites()[0]
	store := telemetry.NewStore()
	poller := telemetry.NewPoller(k, store, 10*sim.Second)
	poller.Watch(site.Switch)
	poller.Start()
	gen := trafficgen.NewGenerator(trafficgen.MakeSiteProfiles(3, 1)[0], 3)
	driver := patchwork.NewTrafficDriver(k, site, gen, nil)
	driver.Start()

	// Another experiment grabs the spare NIC mid-run, then lets go.
	var hog *testbed.Sliver
	k.After(10*sim.Second, func() {
		hog, _ = site.Allocate(k.Now(), testbed.SliceRequest{Name: "rival", VMs: []testbed.VMRequest{
			{DedicatedNICs: 1, Cores: 4, RAM: units.GB, Storage: units.GB},
		}})
		fmt.Printf("  t=%-14v rival experiment takes the spare NIC\n", k.Now())
	})
	k.After(40*sim.Second, func() {
		if hog != nil {
			_ = site.Release(hog)
			fmt.Printf("  t=%-14v rival experiment finishes\n", k.Now())
		}
	})

	cfg := patchwork.Config{
		Mode:            patchwork.AllExperiment,
		SampleDuration:  2 * sim.Second,
		SampleInterval:  5 * sim.Second,
		SamplesPerRun:   1,
		Runs:            12,
		InstancesWanted: 2,
		Seed:            7,
		Nice:            &patchwork.NicePolicy{ScaleDownFreeNICs: 0, ScaleUpFreeNICs: 1},
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

	b := prof.Bundles[0]
	fmt.Printf("  outcome: %v, captures: %d\n", b.Outcome, b.Captures)
	fmt.Println("  footprint changes:")
	for _, ev := range b.ScaleEvents {
		fmt.Printf("    %v\n", ev)
	}
	if len(b.ScaleEvents) == 0 {
		fmt.Println("    (none — site never came under pressure)")
	}
}
