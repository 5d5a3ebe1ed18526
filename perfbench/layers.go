package main

import (
	"fmt"
	"io"
	"strings"
)

// layerMetric is one per-layer metric of the traced run. Moves names
// the end-to-end metrics a change to this layer should move; Large and
// Absent name the workloads where the layer's cost is a large share and
// where it is (nearly) absent. This table is the layer -> end-to-end
// mapping later changes are judged against.
type layerMetric struct {
	Layer  string
	Name   string
	Unit   string
	Better string
	Moves  string
	Large  string
	Absent string
}

var layerMetrics = func() []layerMetric {
	var out []layerMetric
	// Each metric is "name unit better".
	add := func(layer, moves, large, absent string, metrics ...string) {
		for _, m := range metrics {
			f := strings.Fields(m)
			out = append(out, layerMetric{layer, f[0], f[1], f[2], moves, large, absent})
		}
	}
	add("sim", "frames_per_s cpu_s", "linerate", "analyze",
		"sim.self_s s lower", "sim.events count lower", "sim.events_per_frame events/frame lower", "sim.queue_high_watermark count lower")
	add("trafficgen", "frames_per_s peak_rss_mb (campaign); setup_s (analyze)", "campaign", "linerate",
		"trafficgen.self_s s lower", "trafficgen.alloc_mb MB lower")
	add("core", "frames_per_s cpu_s", "campaign", "analyze linerate",
		"core.self_s s lower", "core.codec_s s lower", "core.alloc_mb MB lower")
	add("campaign", "frames_per_s", "campaign", "analyze linerate", "campaign.setup_s s lower")
	add("switchsim", "frames_per_s", "campaign", "linerate", "switchsim.self_s s lower")
	add("capture", "frames_per_s", "linerate campaign", "analyze",
		"capture.self_s s lower", "capture.ns_per_frame ns lower", "capture.frames_captured count higher", "capture.frames_dropped count lower")
	add("hostsim", "frames_per_s", "linerate", "analyze",
		"hostsim.self_s s lower", "hostsim.writev_calls count lower", "hostsim.blocked_calls count lower")
	add("pcap", "frames_per_s", "campaign (writes) analyze (reads)", "linerate",
		"pcap.self_s s lower", "pcap.read_s s lower")
	add("journal", "frames_per_s cpu_s", "campaign", "analyze linerate",
		"journal.write_s s lower", "journal.sync_s s lower", "journal.syncs count lower", "journal.bytes B lower")
	for _, l := range []string{"testbed", "telemetry", "obs", "health", "remedy"} {
		add(l, "cpu_s", "campaign", "analyze linerate", l+".self_s s lower")
	}
	add("wire", "frames_per_s", "analyze", "linerate", "wire.self_s s lower", "wire.alloc_mb MB lower")
	add("analysis", "frames_per_s peak_rss_mb", "analyze", "campaign linerate",
		"analysis.self_s s lower", "analysis.acap_s s lower", "analysis.digest_s s lower", "analysis.aggregate_s s lower", "analysis.csv_s s lower",
		"analysis.frames count higher", "analysis.flows count higher", "analysis.spilled_frac fraction lower", "analysis.alloc_mb MB lower")
	add("sketch", "frames_per_s", "analyze", "campaign linerate", "sketch.self_s s lower")
	add("flowstore", "frames_per_s (writes); query_p50_ms query_p99_ms (reads)", "analyze", "campaign linerate",
		"flowstore.self_s s lower", "flowstore.append_s s lower", "flowstore.bytes B lower", "flowstore.segments count lower", "flowstore.query_s s lower", "flowstore.query_rows count higher",
		"query_p50_ms ms lower", "query_p99_ms ms lower")
	add("runtime", "cpu_s peak_rss_mb", "all", "-", "runtime.gc_s s lower", "runtime.heap_peak_mb MB lower")
	add("bench", "-", "-", "-", "bench.self_s s lower")
	add("trace", "-", "-", "-", "trace.frames_per_s frames/s higher", "trace.untraced_frames_per_s frames/s higher", "trace.overhead_frac fraction lower")
	return out
}()

// writeLayerTable prints the per-layer table in a fixed order and
// format, so two runs' tables can be compared with diff.
func writeLayerTable(w io.Writer, workload string, values map[string]float64) {
	fmt.Fprintf(w, "per-layer table: workload %s\n", workload)
	fmt.Fprintf(w, "%-11s %-29s %13s  %-12s %-17s %-17s %s\n", "layer", "metric", "value", "unit", "large in", "absent in", "moves")
	for _, m := range layerMetrics {
		fmt.Fprintf(w, "%-11s %-29s %13.6g  %-12s %-17s %-17s %s\n",
			m.Layer, m.Name, values[m.Name], m.Unit, m.Large, m.Absent, m.Moves)
	}
}
