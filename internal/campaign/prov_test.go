package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/prof"
)

// promDump renders a result's sim registry for artifact comparison.
func promDump(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Registry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestProvenanceDeterministic is the campaign-level provenance gate:
// two runs of the same spec write byte-identical traces, and recording
// the trace never perturbs the run's other artifacts.
func TestProvenanceDeterministic(t *testing.T) {
	spec := smallSpec()
	spec.FederationSites = 3

	base, err := RunExec(spec, t.TempDir(), true, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	baseProm := promDump(t, base)

	// runProv runs the spec with provenance on and returns the result
	// and the trace bytes, checking the metrics against the baseline.
	runProv := func(path string) (*Result, []byte) {
		t.Helper()
		res, err := RunExec(spec, t.TempDir(), true, Exec{ProvenancePath: path})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(baseProm, promDump(t, res)) {
			t.Error("recording provenance perturbed the metrics artifact")
		}
		trace, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return res, trace
	}
	serialPath := filepath.Join(t.TempDir(), "serial.trace")
	serial, first := runProv(serialPath)
	_, second := runProv(filepath.Join(t.TempDir(), "again.trace"))
	if !bytes.Equal(first, second) {
		t.Fatal("provenance trace differs between two same-seed runs")
	}

	tr, err := prof.LoadTrace(serialPath)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(tr.Events)) != serial.ProvRecords {
		t.Errorf("loaded %d events, writer reported %d", len(tr.Events), serial.ProvRecords)
	}
	if len(tr.Events) == 0 {
		t.Fatal("campaign emitted no provenance records")
	}
	if len(tr.TagNames) != spec.FederationSites {
		t.Errorf("trace defines %d site tags, want %d", len(tr.TagNames), spec.FederationSites)
	}
	tagged := false
	for _, e := range tr.Events {
		if e.Tag != 0 {
			tagged = true
			break
		}
	}
	if !tagged {
		t.Error("no events attributed to any site")
	}
	if path := tr.CriticalPath(); len(path) == 0 {
		t.Error("trace yields no critical path")
	}
}
