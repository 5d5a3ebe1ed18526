// Package repro's top-level benchmarks regenerate every table and figure
// of the paper as testing.B benchmarks: `go test -bench=. -benchmem`
// reruns the whole evaluation. Each benchmark reports the experiment's
// headline quantities as custom metrics, so benchmark output doubles as
// the paper-vs-measured record.
package repro

import (
	"net/netip"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/capture"
	"repro/internal/experiments"
	"repro/internal/hostsim"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/wire"
)

// benchExperiment runs a registered experiment once per iteration.
func benchExperiment(b *testing.B, id string) *experiments.Result {
	b.Helper()
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Run(id, 1)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		last = r
	}
	return last
}

// metric parses a numeric cell and reports it under the given unit.
func metric(b *testing.B, val string, unit string) {
	v, err := strconv.ParseFloat(strings.TrimSuffix(val, "%"), 64)
	if err == nil {
		b.ReportMetric(v, unit)
	}
}

// --- Section 5 study figures ---

func BenchmarkFig2PortDistribution(b *testing.B) {
	r := benchExperiment(b, "fig2")
	b.ReportMetric(float64(len(r.Rows)), "sites")
}

func BenchmarkFig3SitesPerSlice(b *testing.B) {
	r := benchExperiment(b, "fig3")
	metric(b, r.Rows[0][2], "%single-site")
}

func BenchmarkFig4SliceLifetimes(b *testing.B) {
	r := benchExperiment(b, "fig4")
	for _, row := range r.Rows {
		if row[0] == "24h" {
			metric(b, row[1], "frac<=24h")
		}
	}
}

func BenchmarkFig5ConcurrentSlices(b *testing.B) {
	r := benchExperiment(b, "fig5")
	metric(b, r.Rows[0][1], "mean-slices")
	metric(b, r.Rows[2][1], "max-slices")
}

func BenchmarkFig6WeeklyUtilization(b *testing.B) {
	r := benchExperiment(b, "fig6")
	b.ReportMetric(float64(len(r.Rows)), "weeks")
}

func BenchmarkPortUtilization(b *testing.B) {
	r := benchExperiment(b, "portutil")
	for _, row := range r.Rows {
		if row[0] == "p50" {
			metric(b, row[1], "%median-util")
		}
	}
}

// --- Section 8.1 performance experiments ---

func BenchmarkTcpdumpCeiling(b *testing.B) {
	r := benchExperiment(b, "tcpdump")
	for _, row := range r.Rows {
		if row[0] == "11Gbps" {
			metric(b, row[1], "%loss@11G")
		}
	}
}

func BenchmarkTable1DPDK200B(b *testing.B) {
	r := benchExperiment(b, "table1")
	metric(b, r.Rows[0][3], "cores-1514B@100G")
}

func BenchmarkTable2DPDK64B(b *testing.B) {
	r := benchExperiment(b, "table2")
	metric(b, r.Rows[0][3], "cores-1514B@100G")
}

func BenchmarkFig14StorageBottleneck(b *testing.B) {
	r := benchExperiment(b, "fig14")
	for _, row := range r.Rows {
		if row[0] == "21" {
			metric(b, row[1], "ms-10:20@21%")
		}
	}
}

// --- Section 8.1.1 deployment behavior ---

func BenchmarkFig10RunOutcomes(b *testing.B) {
	r := benchExperiment(b, "fig10")
	metric(b, r.Rows[0][2], "%success")
}

// --- Section 8.2 traffic profile ---

func BenchmarkFig11HeaderDiversity(b *testing.B) {
	benchExperiment(b, "fig11")
}

func BenchmarkFig12HeaderOccurrence(b *testing.B) {
	r := benchExperiment(b, "fig12")
	for _, row := range r.Rows {
		if row[0] == "IPv6" {
			metric(b, row[1], "%IPv6")
		}
	}
}

func BenchmarkFig13FlowsPerSample(b *testing.B) {
	benchExperiment(b, "fig13")
}

func BenchmarkFig15FrameSizesPerSite(b *testing.B) {
	benchExperiment(b, "fig15")
}

func BenchmarkFrameSizeAggregate(b *testing.B) {
	r := benchExperiment(b, "framesizes")
	for _, row := range r.Rows {
		if row[0] == "1519-2047" {
			metric(b, row[2], "%jumbo-class")
		}
	}
}

// --- Ablations (design choices called out in DESIGN.md) ---

func BenchmarkAblationPortCycling(b *testing.B) {
	benchExperiment(b, "ablation-cycling")
}

func BenchmarkAblationTruncation(b *testing.B) {
	benchExperiment(b, "ablation-truncation")
}

func BenchmarkAblationDirtyThresholds(b *testing.B) {
	benchExperiment(b, "ablation-thresholds")
}

func BenchmarkAblationMirrorDirection(b *testing.B) {
	benchExperiment(b, "ablation-mirror-direction")
}

func BenchmarkAblationCaptureMethods(b *testing.B) {
	benchExperiment(b, "ablation-methods")
}

func BenchmarkAblationNetFlowBaseline(b *testing.B) {
	r := benchExperiment(b, "ablation-netflow")
	nf, err1 := strconv.Atoi(r.Rows[0][1])
	pw, err2 := strconv.Atoi(r.Rows[0][2])
	if err1 == nil && err2 == nil && nf > 0 {
		b.ReportMetric(float64(pw)/float64(nf), "x-flow-undercount")
	}
}

// --- Micro-benchmarks of the hot paths ---

// BenchmarkWireFastPath measures the allocation-free decoding path used
// by the capture engine.
func BenchmarkWireFastPath(b *testing.B) {
	var (
		eth  wire.Ethernet
		dot  wire.Dot1Q
		mpls wire.MPLS
		cw   wire.PWControlWord
		ip4  wire.IPv4
		tcp  wire.TCP
	)
	parser := wire.NewDecodingLayerParser(wire.LayerTypeEthernet, &eth, &dot, &mpls, &cw, &ip4, &tcp)
	frame := buildBenchFrame(b)
	var decoded []wire.LayerType
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = parser.DecodeLayers(frame, &decoded)
	}
}

func buildBenchFrame(b *testing.B) []byte {
	b.Helper()
	buf := wire.NewSerializeBuffer()
	pay := wire.Payload(make([]byte, 1400))
	err := wire.SerializeLayers(buf, wire.SerializeOptions{FixLengths: true},
		&wire.Ethernet{EthernetType: wire.EthernetTypeDot1Q},
		&wire.Dot1Q{VLANID: 2101, EthernetType: wire.EthernetTypeMPLSUnicast},
		&wire.MPLS{Label: 1000, StackBottom: true, TTL: 64},
		&wire.PWControlWord{},
		&wire.Ethernet{EthernetType: wire.EthernetTypeIPv4},
		&wire.IPv4{TTL: 64, Protocol: wire.IPProtocolTCP,
			SrcIP: netip.MustParseAddr("10.0.0.1"), DstIP: netip.MustParseAddr("10.0.0.2")},
		&wire.TCP{SrcPort: 1, DstPort: 5001, DataOffset: 5},
		&pay)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]byte, len(buf.Bytes()))
	copy(out, buf.Bytes())
	return out
}

// BenchmarkCaptureEngine measures the DPDK-model engine's per-frame cost.
// The allocs/frame metric must stay ~0: completion records pool in the
// engine and events pool in the kernel arena, so the steady-state frame
// path never touches the heap (asserted by TestDeliverFrameAllocFree in
// internal/capture).
func BenchmarkCaptureEngine(b *testing.B) {
	k := sim.NewKernel()
	e, err := capture.NewEngine(k, capture.Config{Method: capture.MethodDPDK, SnapLen: 200, Cores: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	st := capture.OfferLoad(k, e, 1514, 10*units.Gbps, sim.Duration(b.N)*sim.Microsecond)
	runtime.ReadMemStats(&m1)
	if st.Received > 0 {
		b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(st.Received), "allocs/frame")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(st.Received), "ns/frame")
	}
}

// BenchmarkHostWritev measures the page-cache model.
func BenchmarkHostWritev(b *testing.B) {
	h, err := hostsim.New(hostsim.Config{DirtyBackgroundRatio: 60, DirtyRatio: 80})
	if err != nil {
		b.Fatal(err)
	}
	var now sim.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lat := h.Writev(now, 128*216)
		now += lat + 3*sim.Microsecond
	}
}
