package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"
)

// allocSampleRate is the allocation profile's sampling rate in the
// traced process: finer than the runtime default, so per-layer
// allocation totals are estimated from more samples.
const allocSampleRate = 64 << 10

// tracedOut is what an in-process run reports back to the
// orchestrator.
type tracedOut struct {
	// Frames and Wall give the run's throughput over its timed part,
	// which is the same work with the tracer on and off.
	Frames float64 `json:"frames"`
	Wall   float64 `json:"wall_s"`
	// Values are per-layer metrics; Counts are the deterministic counts
	// the untraced run must agree with.
	Values map[string]float64 `json:"values"`
	Counts map[string]int64   `json:"counts"`
	// OutDir holds the traced run's outputs, for byte comparison.
	OutDir string `json:"out_dir"`
}

func childMain(kind string, args []string) error {
	switch kind {
	case "linerate":
		return linerateChild(args)
	case "query":
		return queryChild(args)
	case "traced":
		return tracedChild(args)
	}
	return fmt.Errorf("unknown child %q", kind)
}

// tracedChild runs one workload in process and writes its tracedOut as
// JSON: traced, or with -reference untraced and unprofiled.
func tracedChild(args []string) error {
	fs := flag.NewFlagSet("traced", flag.ContinueOnError)
	name := fs.String("workload", "", "")
	root := fs.String("root", "", "")
	work := fs.String("work", "", "")
	seed := fs.Uint64("seed", defaultSeed, "")
	smoke := fs.Bool("smoke", false, "")
	reference := fs.Bool("reference", false, "")
	out := fs.String("out", "", "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	b := &bench{root: *root, work: *work, seed: *seed, smoke: *smoke, reference: *reference}
	var res *tracedOut
	var err error
	if b.reference {
		res, err = w.traced(b, nil)
	} else {
		runtime.MemProfileRate = allocSampleRate
		res, err = runTraced(b, w)
	}
	if err != nil {
		return err
	}
	return writeJSON(*out, res)
}

// runTraced wraps a workload's traced run in the measurements taken
// from outside its layers: a CPU profile and an allocation profile
// charged to modules, GC CPU time and the heap's peak. The spans are
// written to spans.jsonl in the work directory.
func runTraced(b *bench, w workload) (*tracedOut, error) {
	tr := NewTracer(1)
	allocsBefore := MemProfile()
	gcBefore := gcCPUSeconds()
	peak := startHeapSampler()
	var cpuProf bytes.Buffer
	if err := pprof.StartCPUProfile(&cpuProf); err != nil {
		return nil, err
	}
	out, err := w.traced(b, tr)
	pprof.StopCPUProfile()
	heapPeak := peak()
	if err != nil {
		return nil, err
	}
	gcSecs := gcCPUSeconds() - gcBefore
	allocs := AttributeAllocs(allocsBefore, MemProfile())
	cpu, err := AttributeCPU(cpuProf.Bytes())
	if err != nil {
		return nil, err
	}
	if err := WriteSpans(filepath.Join(b.work, "spans.jsonl"), tr.Spans()); err != nil {
		return nil, err
	}

	v := out.Values
	for m, ns := range cpu.Self {
		v[m+".self_s"] = float64(ns) / 1e9
	}
	for m, n := range allocs.Self {
		v[m+".alloc_mb"] = float64(n) / (1 << 20)
	}
	v["core.codec_s"] = float64(cpu.Codec["core"]) / 1e9
	if frames := max(v["capture.frames_captured"], out.Frames); frames > 0 {
		// Per frame the engine saw: offered in linerate, captured in the
		// campaign.
		v["capture.ns_per_frame"] = v["capture.self_s"] * 1e9 / frames
	}
	v["runtime.gc_s"] = gcSecs
	v["runtime.heap_peak_mb"] = heapPeak / (1 << 20)
	return out, nil
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// startHeapSampler polls the live heap every few milliseconds until the
// returned function is called; that function stops the sampler, waits
// for it, and returns the peak in bytes.
func startHeapSampler() func() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var peak float64
	read := func() {
		metrics.Read(s)
		if s[0].Value.Kind() == metrics.KindUint64 {
			peak = max(peak, float64(s[0].Value.Uint64()))
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return func() float64 {
		close(stop)
		wg.Wait()
		return peak
	}
}

// tracedStep runs the workload in process twice after the untraced
// run, each in its own process: first with the tracer off, then traced.
// Both must reproduce the untraced run: every deterministic count equal,
// every compared output byte-equal. A mismatch fails the run. The
// tracing overhead compares the two in-process runs, which time the same
// calls.
func tracedStep(b *bench, name string, ref *untracedRef) (map[string]float64, error) {
	plain, err := inProcessRun(b, name, ref, true)
	if err != nil {
		return nil, err
	}
	traced, err := inProcessRun(b, name, ref, false)
	if err != nil {
		return nil, err
	}
	v := traced.Values
	v["trace.frames_per_s"] = traced.Frames / traced.Wall
	v["trace.untraced_frames_per_s"] = plain.Frames / plain.Wall
	v["trace.overhead_frac"] = 1 - v["trace.frames_per_s"]/v["trace.untraced_frames_per_s"]
	if q := ref.queries; q != nil {
		v["query_p50_ms"] = quantile(q.LatMs, 0.50)
		v["query_p99_ms"] = quantile(q.LatMs, 0.99)
	}
	return v, nil
}

// inProcessRun runs the traced child, or with reference its untraced
// twin, and checks it against the untraced run.
func inProcessRun(b *bench, name string, ref *untracedRef, reference bool) (*tracedOut, error) {
	kind := "traced"
	if reference {
		kind = "untraced in-process"
	}
	outPath := filepath.Join(b.work, "traced.json")
	args := []string{"-child", "traced", "-workload", name, "-root", b.root, "-work", b.work,
		"-seed", strconv.FormatUint(b.seed, 10), "-out", outPath}
	if b.smoke {
		args = append(args, "-smoke")
	}
	if reference {
		args = append(args, "-reference")
	}
	p, err := runProc(filepath.Join(b.bin, "perfbench"), args...)
	if err != nil {
		return nil, err
	}
	if p.Exit != 0 {
		return nil, fmt.Errorf("%s run exited %d: %s", kind, p.Exit, bytes.TrimSpace(p.Stderr))
	}
	var out tracedOut
	if err := readJSON(outPath, &out); err != nil {
		return nil, err
	}
	if out.Frames <= 0 || out.Wall <= 0 {
		return nil, fmt.Errorf("%s run handled %g frames in %g s", kind, out.Frames, out.Wall)
	}
	for _, k := range sortedKeys(ref.counts) {
		got, ok := out.Counts[k]
		b.op(ok && got == ref.counts[k], "%s run %s = %d, untraced %d", kind, k, got, ref.counts[k])
	}
	for _, rel := range ref.compare {
		want, err1 := os.ReadFile(filepath.Join(ref.outDir, rel))
		got, err2 := os.ReadFile(filepath.Join(out.OutDir, rel))
		b.op(err1 == nil && err2 == nil && bytes.Equal(want, got), "%s %s differs from the untraced run's", kind, rel)
	}
	return &out, nil
}

func writeJSON(path string, v any) error {
	return writeFile(path, func(w io.Writer) error { return json.NewEncoder(w).Encode(v) })
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return nil
}

// writeFile creates path and writes it with fn, unbuffered as
// pwanalyze writes its outputs.
func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = fn(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", filepath.Base(path), err)
	}
	return nil
}
