package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestSelfNanos(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Busy: 100, Calls: 1},
		{ID: 2, Parent: 1, Name: "child", Busy: 30, Calls: 1},
		{ID: 3, Parent: 1, Name: "batch", Busy: 50, Calls: 7},
		{ID: 4, Parent: 3, Name: "write", Busy: 20, Calls: 1},
	}
	got := SelfNanos(spans)
	want := []int64{20, 30, 30, 20}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("self times %v, want %v", got, want)
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := NewTracer(3)
	root := tr.Begin("root")
	batch := tr.Batch("frame")
	for i := 0; i < 4; i++ {
		tr.Enter(batch)
		w := tr.Begin("write")
		tr.End(w)
		tr.Exit(batch)
	}
	tr.End(root)
	totals := spanTotals(tr.Spans())
	if c := totals["frame"].Calls; c != 4 {
		t.Fatalf("batch calls %d, want 4", c)
	}
	if c := totals["write"].Calls; c != 4 {
		t.Fatalf("write calls %d, want 4", c)
	}
	for _, s := range tr.Spans() {
		if s.Run != 3 || s.End < s.Start || s.Busy > s.End-s.Start {
			t.Fatalf("bad span %+v", s)
		}
		if s.Name == "write" && s.Parent != batch {
			t.Fatalf("write span parent %d, want the batch %d", s.Parent, batch)
		}
	}
	if self := totals["frame"].Self; self < 0 || self > totals["frame"].Busy {
		t.Fatalf("batch self %d outside [0, busy %d]", self, totals["frame"].Busy)
	}
}

func TestFrameModule(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/core.(*siteInstance).harvestCycle": "core",
		"repro/internal/sim.(*Kernel).Step":                "sim",
		"compress/flate.(*compressor).deflate":             "",
		"runtime.mallocgc":                                 "",
		"main.digestCapture.func1":                         "bench",
	} {
		if got := frameModule(fn); got != want {
			t.Errorf("frameModule(%q) = %q, want %q", fn, got, want)
		}
	}
	a := newAttribution()
	a.charge([]string{"compress/flate.(*compressor).deflate", "compress/gzip.(*Writer).Write", "repro/internal/core.(*siteInstance).harvestCycle"}, 5)
	a.charge([]string{"runtime.gcBgMarkWorker"}, 2)
	if a.Self["core"] != 5 || a.Codec["core"] != 5 || a.Self["runtime"] != 2 {
		t.Fatalf("attribution %+v", a)
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

func TestAttributeCPU(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	a, err := AttributeCPU(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if a.Self["bench"] <= 0 {
		t.Fatalf("no samples charged to the benchmark's own spin loop: %v", a.Self)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Fatalf("median %v", m)
	}
	if q := quantile(xs, 0.25); q != 2 {
		t.Fatalf("p25 %v", q)
	}
	if m := median([]float64{1, 2}); m != 1.5 {
		t.Fatalf("even median %v", m)
	}
}

// TestSmoke builds the benchmark and the CLIs, then runs every workload
// at smoke size, untraced and traced: each must pass its checks and
// report exactly the metrics its mode promises.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every workload")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), ".", "repro/cmd/patchwork", "repro/cmd/pwanalyze")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	endToEnd := []string{"cpu_s", "frames_per_s", "peak_rss_mb", "setup_s"}
	for _, w := range []string{"campaign", "analyze", "linerate"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				cmd := exec.Command(filepath.Join(bin, "perfbench"), "-root", root, "-workload", w,
					"-seed", "3", "-seconds", "0", "-trace", trace, "-smoke")
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("%v\n%s", err, out)
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res Result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("checks failed:\n%s", out)
				}
				want := endToEnd
				if trace == "1" {
					want = nil
					for _, m := range layerMetrics {
						want = append(want, m.Name)
					}
					if !strings.Contains(string(out), "per-layer table: workload "+w) {
						t.Fatalf("no per-layer table:\n%s", out)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Fatalf("%d metrics, want %d: %v", len(res.Metrics), len(want), res.Metrics)
				}
				for _, n := range want {
					m, ok := res.Metrics[n]
					if !ok {
						t.Fatalf("metric %s missing", n)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", n, m.Value)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric lists in step with
// what the benchmark reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	var s samples
	e2e := s.metrics()
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("%d end-to-end metrics listed, %d reported", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %s (%s) is not reported with that unit", m.Name, m.Unit)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics listed, %d reported", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if p := spec.PerLayer[i]; p.Name != m.Name || p.Unit != m.Unit || p.Better != m.Better {
			t.Errorf("per-layer metric %d is %+v in BENCHMARK.json, %s %s %s in the table", i, p, m.Name, m.Unit, m.Better)
		}
	}
}
