package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/pcap"
	"repro/internal/remedy"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// campaignSize is the campaign workload's shape: the ROADMAP's reference
// journaled campaign (16 sites, tcpdump, 3 runs x 2 samples of 5 s), or
// a tiny one for smoke runs.
type campaignSize struct {
	sites, runs, samples, sampleSec int
}

func (b *bench) campaignSize() campaignSize {
	if b.smoke {
		return campaignSize{sites: 2, runs: 1, samples: 1, sampleSec: 1}
	}
	return campaignSize{sites: 16, runs: 3, samples: 2, sampleSec: 5}
}

// args is the patchwork command line for this size; the reference size
// uses the CLI's defaults for runs and samples.
func (c campaignSize) args(seed uint64, out string) []string {
	args := []string{"-federation-sites", strconv.Itoa(c.sites), "-remedy", "-seed", strconv.FormatUint(seed, 10), "-out", out}
	if c.runs != 3 || c.samples != 2 || c.sampleSec != 5 {
		args = append(args, "-runs", strconv.Itoa(c.runs), "-samples", strconv.Itoa(c.samples),
			"-sample-sec", strconv.Itoa(c.sampleSec))
	}
	return args
}

// spec is the campaign.Spec patchwork builds from those flags.
func (c campaignSize) spec(seed uint64) campaign.Spec {
	pol := remedy.DefaultPolicy()
	return campaign.Spec{
		Mode: "all", Runs: c.runs, Samples: c.samples, SampleSec: c.sampleSec,
		IntervalSec: 2 * c.sampleSec, TruncateBytes: 200, Method: "tcpdump",
		Seed: seed, FederationSites: c.sites, CheckpointSec: 60, Remedy: &pol,
	}
}

// siteNames are the federation's first n sites: one bundle each.
func siteNames(seed uint64, n int) []string {
	var names []string
	for i, s := range testbed.DefaultFederation(sim.NewKernel(), seed).Sites() {
		if i < n {
			names = append(names, s.Spec.Name)
		}
	}
	return names
}

// bundleCheck is one site bundle's parsed captures.
type bundleCheck struct {
	frames, stored int64
	err            string
}

// checkBundle parses every pcap in a site's output directory: each must
// read to the end with no torn tail.
func checkBundle(dir string) bundleCheck {
	var bc bundleCheck
	if _, err := os.Stat(filepath.Join(dir, "run.log")); err != nil {
		return bundleCheck{err: "no run.log"}
	}
	pcaps, _ := filepath.Glob(filepath.Join(dir, "capture-*.pcap"))
	if len(pcaps) == 0 {
		return bundleCheck{err: "no captures"}
	}
	for _, path := range pcaps {
		f, err := os.Open(path)
		if err != nil {
			return bundleCheck{err: err.Error()}
		}
		rd, err := pcap.NewReader(f)
		if err == nil {
			err = rd.ForEach(func(r *pcap.Record) error {
				bc.frames++
				bc.stored += int64(len(r.Data))
				return nil
			})
		}
		f.Close()
		if err != nil {
			return bundleCheck{err: fmt.Sprintf("%s: %v", filepath.Base(path), err)}
		}
		if rd.Torn() {
			return bundleCheck{err: filepath.Base(path) + ": torn tail"}
		}
	}
	return bc
}

func campaignUntraced(b *bench) (map[string]Metric, *untracedRef, error) {
	size := b.campaignSize()
	sites := siteNames(b.seed, size.sites)
	var s samples
	var ref *untracedRef
	var first map[string]string
	err := b.timed(func(rep int) error {
		out := filepath.Join(b.work, fmt.Sprintf("out-%d", rep))
		if err := campaignSetup(&s, out); err != nil {
			return err
		}
		p, err := runProc(filepath.Join(b.bin, "patchwork"), size.args(b.seed, out)...)
		if err != nil {
			return err
		}
		exited := p.Exit == 0

		tree, err := treeDigests(out)
		if err != nil {
			return err
		}
		groups := groupDigests(tree, sites)
		var frames, stored int64
		for _, site := range sites {
			bc := checkBundle(filepath.Join(out, site))
			if bc.err == "" && !exited {
				bc.err = fmt.Sprintf("patchwork exited %d: %s", p.Exit, lastLine(p.Stderr))
			}
			if rep > 0 && bc.err == "" && groups[site] != first[site] {
				bc.err = "output differs from the first repeat"
			}
			b.op(bc.err == "", "site %s bundle: %s", site, bc.err)
			frames += bc.frames
			stored += bc.stored
		}
		s.add(rep, float64(frames), p.Wall, p)
		if rep == 0 {
			first = groups
			ref = &untracedRef{
				outDir:  out,
				compare: []string{"journal/manifest.json", "journal/wal.jsonl", "journal/checkpoint.json"},
				counts:  map[string]int64{"frames_captured": frames, "stored_bytes": stored},
			}
			return nil
		}
		// Outside the site bundles: the journal, health and remedy trees.
		b.op(groups[""] == first[""],
			"campaign output outside the site bundles differs between repeats 0 and %d", rep)
		return os.RemoveAll(out)
	})
	if err != nil {
		return nil, nil, err
	}
	return s.metrics(), ref, nil
}

// campaignSetup prepares one repeat: a fresh, empty output directory.
// patchwork builds its world inside the timed process, which the traced
// run reports as campaign.setup_s. The preparation takes well under a
// millisecond and its latency has a long tail, so it is done many times
// and each is recorded, to keep the median steady.
func campaignSetup(s *samples, out string) error {
	for i := 0; i < 50; i++ {
		start := time.Now()
		err := os.RemoveAll(out)
		if err == nil {
			err = os.MkdirAll(out, 0o755)
		}
		s.setup = append(s.setup, time.Since(start).Seconds())
		if err != nil {
			return err
		}
	}
	return nil
}

// groupDigests digests a tree per site bundle, keyed by site name,
// and everything outside the bundles (journal, health, remedy) under "".
func groupDigests(tree map[string]string, sites []string) map[string]string {
	isSite := make(map[string]bool, len(sites))
	for _, s := range sites {
		isSite[s] = true
	}
	groups := make(map[string]map[string]string)
	for name, sum := range tree {
		top, _, _ := strings.Cut(name, "/")
		if !isSite[top] {
			top = ""
		}
		if groups[top] == nil {
			groups[top] = make(map[string]string)
		}
		groups[top][name] = sum
	}
	out := make(map[string]string, len(groups))
	for g, files := range groups {
		out[g] = digestOf(files)
	}
	return out
}

func lastLine(b []byte) string {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return string(lines[len(lines)-1])
}

// attachSink is the benchmark's campaign.LiveSink: it publishes nothing,
// and its Attach call — made once the world is built, before the
// simulation starts — closes the campaign.setup span.
type attachSink struct {
	tr      *Tracer
	setup   int
	runtime *obs.Registry
}

func (s *attachSink) Attach(*obs.Registry, *health.Monitor) {
	if s.setup != 0 {
		s.tr.End(s.setup)
		s.setup = 0
	}
}
func (s *attachSink) Runtime() *obs.Registry   { return s.runtime }
func (s *attachSink) Interval() sim.Duration   { return 1 << 62 }
func (s *attachSink) PublishTick(now sim.Time) {}

// campaignTraced runs the same campaign in process through
// campaign.RunExecLive, with the journal's writes timed through the
// benchmark's storage seam. Its journal must equal the CLI run's byte
// for byte.
func campaignTraced(b *bench, tr *Tracer) (*tracedOut, error) {
	size := b.campaignSize()
	dir := filepath.Join(b.tracedOutDir(), "journal")
	sink := &attachSink{tr: tr, runtime: obs.NewRegistry(nil)}
	start := time.Now()
	root := tr.Begin("campaign.RunExecLive")
	sink.setup = tr.Begin("campaign.setup")
	res, err := campaign.RunExecLive(size.spec(b.seed), dir, true, campaign.Exec{FS: storeFS(tr, "journal")}, sink)
	sink.Attach(nil, nil)
	tr.End(root)
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}
	if res.Crashed {
		return nil, fmt.Errorf("traced campaign crashed at %v", res.CrashedAt)
	}
	sum := registrySums(res.Registry)
	frames := sum["capture_frames_captured_total"]
	st := spanTotals(tr.Spans())
	return &tracedOut{
		Frames: frames, Wall: wall.Seconds(),
		OutDir: b.tracedOutDir(),
		Values: map[string]float64{
			"campaign.setup_s":         float64(st["campaign.setup"].Busy) / 1e9,
			"journal.write_s":          float64(st["journal.write"].Busy) / 1e9,
			"journal.sync_s":           float64(st["journal.sync"].Busy) / 1e9,
			"journal.syncs":            float64(st["journal.sync"].Calls),
			"journal.bytes":            float64(st["journal.write"].Bytes),
			"sim.events":               sum["sim_events_processed"],
			"sim.events_per_frame":     sum["sim_events_processed"] / max(frames, 1),
			"sim.queue_high_watermark": sum["sim_queue_high_watermark"],
			"capture.frames_captured":  frames,
			"capture.frames_dropped":   sum["capture_frames_dropped_total"],
			"hostsim.writev_calls":     sum["hostsim_writev_latency_ns"],
			"hostsim.blocked_calls":    sum["hostsim_writev_blocked_total"],
		},
		Counts: map[string]int64{
			"frames_captured": int64(frames),
			"stored_bytes":    int64(sum["capture_stored_bytes_total"]),
		},
	}, nil
}

// registrySums sums each metric family over its label sets (histograms
// contribute their observation counts).
func registrySums(reg *obs.Registry) map[string]float64 {
	out := make(map[string]float64)
	for _, p := range reg.Snapshot() {
		out[p.Name] += p.Value
	}
	return out
}
