package patchwork

import (
	"repro/internal/sim"
	"repro/internal/switchsim"
	"repro/internal/testbed"
	"repro/internal/trafficgen"
)

// TrafficDriver injects synthesized workload traffic onto a site's
// switch ports, so that mirrored ports have something to capture. It
// stands in for the other researchers' experiments running on the
// testbed: Patchwork itself never generates the traffic it profiles.
type TrafficDriver struct {
	sched sim.Scheduler
	site  *testbed.Site
	gen   *trafficgen.Generator

	// ActivePorts are the downlink ports carrying traffic. Ports not
	// listed stay idle (FABRIC utilization is often low).
	ActivePorts []string
	// WindowFrames bounds frames generated per port per window.
	WindowFrames int
	// Window is the generation granularity (default 1 s).
	Window sim.Duration

	stopped bool
}

// NewTrafficDriver builds a driver for one site, scheduling on k — the
// shared kernel, or the site's provenance-tagging wrapper around it.
// activePorts defaults to the first half of the site's downlinks when
// nil.
func NewTrafficDriver(k sim.Scheduler, site *testbed.Site, gen *trafficgen.Generator, activePorts []string) *TrafficDriver {
	if activePorts == nil {
		for _, n := range site.Switch.PortNames() {
			if p := site.Switch.Port(n); p != nil && p.Role == switchsim.RoleDownlink {
				activePorts = append(activePorts, n)
			}
		}
		activePorts = activePorts[:(len(activePorts)+1)/2]
	}
	return &TrafficDriver{
		sched: k, site: site, gen: gen,
		ActivePorts:  activePorts,
		WindowFrames: 400,
		Window:       sim.Second,
	}
}

// Start begins injecting traffic until Stop is called. Each window, every
// active port receives an independent flow sample; a frame's forward
// direction counts as Rx on the source port and Tx on a peer port,
// matching how a frame between two VMs crosses the switch.
func (d *TrafficDriver) Start() {
	d.stopped = false
	d.window()
}

// Stop halts traffic generation after the current window.
func (d *TrafficDriver) Stop() { d.stopped = true }

func (d *TrafficDriver) window() {
	if d.stopped || len(d.ActivePorts) == 0 {
		return
	}
	base := d.sched.Now()
	for pi, port := range d.ActivePorts {
		frames, err := d.gen.Sample(trafficgen.SampleConfig{
			Duration:  d.Window,
			MaxFrames: d.WindowFrames,
			FlowCount: 2 + pi%5,
		})
		if err != nil {
			continue
		}
		port := port
		peer := d.ActivePorts[(pi+1)%len(d.ActivePorts)]
		for _, tf := range frames {
			tf := tf
			d.sched.At(base+tf.At, func() {
				f := switchsim.NewFrame(tf.Data)
				if tf.Dir == trafficgen.DirForward {
					_ = d.site.Switch.Transit(port, switchsim.DirRx, f)
					_ = d.site.Switch.Transit(peer, switchsim.DirTx, f)
				} else {
					_ = d.site.Switch.Transit(peer, switchsim.DirRx, f)
					_ = d.site.Switch.Transit(port, switchsim.DirTx, f)
				}
			})
		}
	}
	d.sched.At(base+d.Window, d.window)
}
