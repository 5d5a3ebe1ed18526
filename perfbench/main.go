// Command perfbench is the repository benchmark. It runs one named
// workload through the repository's own entry points, checks the
// outputs, and prints the metrics as one JSON object on the last line of
// standard output:
//
//	bash perfbench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//   - campaign: the reference journaled campaign through the patchwork
//     CLI (16 sites, remedy on, tcpdump, 3 runs x 2 samples).
//   - analyze: pwanalyze over a seeded pcap corpus, then a closed loop of
//     flow-store queries from one client.
//   - linerate: the Table 2 DPDK sweep through capture.NewEngine and
//     capture.OfferLoad; it has no randomness and ignores the seed.
//
// With --trace 0 each timed run is its own process, measured from
// outside, and the end-to-end metrics are reported as medians over the
// runs. With --trace 1 one untraced run is followed by an in-process
// run of the same workload on the same inputs with the tracer off, then
// by a traced one, and the per-layer metrics are reported, with the
// per-layer table.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// Default and held-out seeds: claims are made on the default seed and
// confirmed on the held-out one.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// bench is one invocation: its settings, where it works, and the tally
// of checked operations.
type bench struct {
	root    string // checkout root
	work    string // working directory for this workload's outputs
	bin     string // directory holding the built CLIs
	seed    uint64
	seconds float64
	smoke   bool
	// reference marks the in-process run with the tracer off, which the
	// traced run's overhead is measured against.
	reference bool

	attempted, failed int
	failures          []string
}

// op counts one checked operation; a false ok counts it as failed.
func (b *bench) op(ok bool, format string, args ...any) bool {
	b.attempted++
	if !ok {
		b.failed++
		if len(b.failures) < 20 {
			b.failures = append(b.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// tracedOutDir is where an in-process run writes its outputs.
func (b *bench) tracedOutDir() string {
	if b.reference {
		return filepath.Join(b.work, "reference-out")
	}
	return filepath.Join(b.work, "traced-out")
}

// timed repeats fn, at least once, until the run's seconds are used:
// another repeat starts only if half of it would fit, so a run measures
// about seconds on average. Before each repeat the previous one's
// written files are flushed and the harness's garbage collected, so
// neither lands inside the next measurement.
func (b *bench) timed(fn func(rep int) error) error {
	start := time.Now()
	var last time.Duration
	for rep := 0; rep == 0 || (time.Since(start)+last/2).Seconds() < b.seconds; rep++ {
		syscall.Sync()
		runtime.GC()
		repStart := time.Now()
		if err := fn(rep); err != nil {
			return err
		}
		last = time.Since(repStart)
	}
	return nil
}

// samples are one workload's per-repeat measurements.
type samples struct {
	fps, cpu, rss, setup []float64
}

// add records a repeat that handled frames in wall seconds, run in
// process p, and prints it.
func (s *samples) add(rep int, frames float64, wall time.Duration, p *procRun) {
	s.fps = append(s.fps, frames/wall.Seconds())
	s.cpu = append(s.cpu, p.CPU.Seconds())
	s.rss = append(s.rss, p.RSSMB)
	fmt.Printf("repeat %d: frames %.0f wall_s %.4f frames_per_s %.6g cpu_s %.4f peak_rss_mb %.1f steal_s %.2f\n",
		rep, frames, wall.Seconds(), s.fps[len(s.fps)-1], p.CPU.Seconds(), p.RSSMB, p.Steal.Seconds())
}

// metrics reports the medians over the repeats.
func (s *samples) metrics() map[string]Metric {
	return map[string]Metric{
		"frames_per_s": {median(s.fps), "frames/s"},
		"cpu_s":        {median(s.cpu), "s"},
		"peak_rss_mb":  {median(s.rss), "MB"},
		"setup_s":      {median(s.setup), "s"},
	}
}

// workload runs untraced, returning end-to-end metrics, and traced, in
// the traced run's own process.
type workload struct {
	untraced func(b *bench) (map[string]Metric, *untracedRef, error)
	traced   func(b *bench, tr *Tracer) (*tracedOut, error)
}

// untracedRef is what a traced run must reproduce, plus the untraced
// numbers its per-layer report carries.
type untracedRef struct {
	counts  map[string]int64 // deterministic counts
	outDir  string
	compare []string // files under outDir the traced run must reproduce
	queries *queryRun
}

var workloads = map[string]workload{
	"campaign": {untraced: campaignUntraced, traced: campaignTraced},
	"analyze":  {untraced: analyzeUntraced, traced: analyzeTraced},
	"linerate": {untraced: linerateUntraced, traced: linerateTraced},
}

func main() {
	if len(os.Args) > 2 && os.Args[1] == "-child" {
		if err := childMain(os.Args[2], os.Args[3:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var (
		root    = flag.String("root", ".", "checkout root")
		name    = flag.String("workload", "", "campaign, analyze or linerate")
		seed    = flag.Uint64("seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed: %d)", heldOutSeed))
		seconds = flag.Float64("seconds", 20, "how long the timed part measures")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		smoke   = flag.Bool("smoke", false, "tiny workload sizes, for exercising the harness")
	)
	flag.Parse()
	res, err := run(*root, *name, *seed, *seconds, *trace == 1, *smoke)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(root, name string, seed uint64, seconds float64, trace, smoke bool) (*Result, error) {
	w, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want campaign, analyze or linerate)", name)
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return nil, errors.New("not at the root of a checkout: no go.mod")
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	b := &bench{
		root: root, bin: filepath.Dir(exe), seed: seed, seconds: seconds, smoke: smoke,
		work: filepath.Join(root, ".bench_build", "work", name),
	}
	if err := os.RemoveAll(b.work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.work)

	env, _ := json.Marshal(stampEnv(root))
	fmt.Printf("env %s\n", env)
	fmt.Printf("workload %s seed %d seconds %g trace %v smoke %v\n", name, seed, seconds, trace, smoke)

	if trace {
		// One untraced run gives the counts and outputs the in-process
		// runs must reproduce.
		b.seconds = 0
	}
	metrics, ref, err := w.untraced(b)
	if err != nil {
		return nil, err
	}
	if !trace {
		for _, n := range sortedKeys(metrics) {
			fmt.Printf("metric %-14s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
		}
	} else {
		values, err := tracedStep(b, name, ref)
		if err != nil {
			return nil, err
		}
		writeLayerTable(os.Stdout, name, values)
		metrics = make(map[string]Metric, len(layerMetrics))
		for _, m := range layerMetrics {
			metrics[m.Name] = Metric{Value: values[m.Name], Unit: m.Unit}
		}
	}
	errRate := 0.0
	if b.attempted > 0 {
		errRate = float64(b.failed) / float64(b.attempted)
	}
	fmt.Printf("metric %-14s %14.6g fraction (%d of %d checked operations failed)\n", "error_rate", errRate, b.failed, b.attempted)
	for _, f := range b.failures {
		fmt.Printf("check failed: %s\n", f)
	}
	return &Result{Correct: b.failed == 0 && b.attempted > 0, Attempted: max(b.attempted, 1), Failed: b.failed, Metrics: metrics}, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
