package prof

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/sim"
)

// shortFn trims a fully-qualified function name to package.Func.
func shortFn(name string) string {
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		return name[i+1:]
	}
	return name
}

// WriteReport renders the human-readable critical-path + blame report
// pwprof prints. top bounds table lengths (<= 0 means 10).
func WriteReport(w io.Writer, t *Trace, top int) error {
	if top <= 0 {
		top = 10
	}
	path := t.CriticalPath()
	fo := t.FanOut()
	fmt.Fprintf(w, "provenance trace: %d events, %d roots, span %v\n", fo.Events, fo.Roots, t.Span())
	if len(path) == 0 {
		_, err := fmt.Fprintln(w, "empty trace: no critical path")
		return err
	}
	endEv := path[len(path)-1].Ev
	fmt.Fprintf(w, "critical path: %d events, ends at seq %d (%s, t=%v)\n",
		len(path), endEv.Seq, shortFn(t.FnName(endEv.Fn)), endEv.At)

	byFn, byTag := t.Blame(path)
	fmt.Fprintf(w, "\nblame by site/component (critical-path time):\n")
	writeBlame(w, byTag, top)
	fmt.Fprintf(w, "\nblame by callback (critical-path time):\n")
	writeBlame(w, byFn, top)

	fmt.Fprintf(w, "\ntop critical-path steps:\n")
	idx := make([]int, len(path))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if path[idx[a]].Delta != path[idx[b]].Delta {
			return path[idx[a]].Delta > path[idx[b]].Delta
		}
		return path[idx[a]].Ev.Seq < path[idx[b]].Ev.Seq
	})
	n := top
	if n > len(idx) {
		n = len(idx)
	}
	fmt.Fprintf(w, "  %12s  %16s  %16s  %s\n", "seq", "at", "delta", "callback")
	for _, i := range idx[:n] {
		s := path[i]
		fmt.Fprintf(w, "  %12d  %16v  %16v  %s [%s]\n",
			s.Ev.Seq, s.Ev.At, s.Delta, shortFn(t.FnName(s.Ev.Fn)), t.TagName(s.Ev.Tag))
	}

	fmt.Fprintf(w, "\nfan-out: mean %.3f, max %d children at seq %d (%s)\n",
		fo.MeanOut, fo.MaxOut, fo.MaxSeq, shortFn(fo.MaxFn))
	if t.Torn {
		fmt.Fprintln(w, "note: trace had a torn tail (truncated at the damaged frame)")
	}
	return nil
}

func writeBlame(w io.Writer, entries []BlameEntry, top int) {
	fmt.Fprintf(w, "  %8s  %16s  %7s  %s\n", "steps", "time", "%", "name")
	n := top
	if n > len(entries) {
		n = len(entries)
	}
	for _, e := range entries[:n] {
		fmt.Fprintf(w, "  %8d  %16v  %6.2f%%  %s\n",
			e.Steps, sim.Duration(e.Ns), 100*e.Frac, shortFn(e.Name))
	}
}

// WriteChromeCriticalPath renders the critical path as a Chrome
// trace-viewer array: one "X" slice per hop, placed at the parent's
// timestamp with the hop's delta as duration, one row (tid) per tag.
// Timestamps are sim-time microseconds, never wall time, so the output
// is byte-identical across same-seed runs.
func WriteChromeCriticalPath(w io.Writer, t *Trace) error {
	path := t.CriticalPath()
	var b strings.Builder
	b.WriteString("[\n")
	micros := func(ns sim.Time) string {
		return fmt.Sprintf("%d.%03d", int64(ns)/1000, int64(ns)%1000)
	}
	tids := make(map[int32]bool)
	for i, s := range path {
		if i > 0 {
			b.WriteString(",\n")
		}
		start := s.Ev.At - sim.Time(s.Delta)
		if !tids[s.Ev.Tag] {
			tids[s.Ev.Tag] = true
			fmt.Fprintf(&b, `{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`+",\n",
				s.Ev.Tag, t.TagName(s.Ev.Tag))
		}
		fmt.Fprintf(&b, `{"name":%q,"cat":"critical-path","ph":"X","ts":%s,"dur":%s,"pid":1,"tid":%d,"args":{"seq":%d}}`,
			shortFn(t.FnName(s.Ev.Fn)), micros(start), micros(sim.Time(s.Delta)), s.Ev.Tag, s.Ev.Seq)
	}
	b.WriteString("\n]\n")
	_, err := io.WriteString(w, b.String())
	return err
}
