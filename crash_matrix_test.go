package repro

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/campaign"
	"repro/internal/journal"
)

// matrixSpec is a deliberately small campaign whose WAL still exercises
// every record kind the matrix cares about: setups, releases, periodic
// checkpoints, and the teardown tail.
func matrixSpec() campaign.Spec {
	return campaign.Spec{
		Mode:            "all",
		FederationSites: 2,
		Runs:            1,
		Samples:         1,
		SampleSec:       2,
		IntervalSec:     4,
		Seed:            7,
		Instances:       1,
		CheckpointSec:   5,
	}
}

// matrixArtifacts is every byte a kill+resume pair must reproduce.
type matrixArtifacts struct {
	wal, checkpoint, metrics, alertLog []byte
}

func matrixCollect(t *testing.T, res *campaign.Result) matrixArtifacts {
	t.Helper()
	var metrics, alerts bytes.Buffer
	if err := res.Registry.WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	if err := res.Monitor.WriteAlertLog(&alerts); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(res.Dir, journal.WALFile))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := os.ReadFile(filepath.Join(res.Dir, journal.CheckpointFile))
	if err != nil {
		t.Fatal(err)
	}
	return matrixArtifacts{wal: wal, checkpoint: cp, metrics: metrics.Bytes(), alertLog: alerts.Bytes()}
}

// probeCrashPoint kills a fresh campaign at one WAL boundary, resumes it
// to completion, and asserts every artifact matches the uninterrupted
// baseline byte for byte.
func probeCrashPoint(t *testing.T, spec campaign.Spec, base matrixArtifacts, seq uint64, afterSwap bool) {
	t.Helper()
	dir := t.TempDir()
	kill := campaign.Exec{CrashArm: true, CrashAtSeq: seq, CrashAfterCheckpointSwap: afterSwap}
	res, err := campaign.RunExec(spec, dir, false, kill)
	if err != nil {
		t.Fatalf("seq %d afterSwap=%v: %v", seq, afterSwap, err)
	}
	if !res.Crashed {
		t.Fatalf("seq %d afterSwap=%v: campaign completed despite armed crash point", seq, afterSwap)
	}
	for resumes := 0; res.Crashed; resumes++ {
		if resumes > 3 {
			t.Fatalf("seq %d afterSwap=%v: still crashed after 3 resumes", seq, afterSwap)
		}
		if res, err = campaign.ResumeExec(dir, false, campaign.Exec{}); err != nil {
			t.Fatalf("seq %d afterSwap=%v: resume: %v", seq, afterSwap, err)
		}
	}
	if res.Profile == nil {
		t.Fatalf("seq %d afterSwap=%v: resumed campaign produced no profile", seq, afterSwap)
	}
	art := matrixCollect(t, res)
	if !bytes.Equal(art.wal, base.wal) {
		t.Errorf("seq %d afterSwap=%v: WAL differs from baseline:\n%s\nvs\n%s", seq, afterSwap, art.wal, base.wal)
	}
	if !bytes.Equal(art.checkpoint, base.checkpoint) {
		t.Errorf("seq %d afterSwap=%v: checkpoint.json differs from baseline", seq, afterSwap)
	}
	if !bytes.Equal(art.metrics, base.metrics) {
		t.Errorf("seq %d afterSwap=%v: metrics differ from baseline", seq, afterSwap)
	}
	if !bytes.Equal(art.alertLog, base.alertLog) {
		t.Errorf("seq %d afterSwap=%v: alert log differs from baseline", seq, afterSwap)
	}
}

// TestCrashPointMatrix kills a journaled campaign at every WAL-record
// and checkpoint boundary (strided in -short mode), plus both sides of
// every checkpoint swap, and asserts the resumed run is byte-identical
// to the uninterrupted baseline — the strongest form of the
// crash-consistency contract.
func TestCrashPointMatrix(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 5
	}
	spec := matrixSpec()
	baseDir := t.TempDir()
	baseRes, err := campaign.RunExec(spec, baseDir, false, campaign.Exec{})
	if err != nil {
		t.Fatal(err)
	}
	if baseRes.Profile == nil {
		t.Fatal("baseline produced no profile")
	}
	base := matrixCollect(t, baseRes)
	recs, err := journal.ReadWAL(baseDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 6 {
		t.Fatalf("baseline WAL holds only %d records — too small to be a meaningful matrix", len(recs))
	}
	checkpoints := 0
	for i, rec := range recs {
		if rec.Kind == journal.KindCheckpoint {
			checkpoints++
		}
		probe := i%stride == 0 || i == len(recs)-1 || rec.Kind == journal.KindCheckpoint
		if !probe {
			continue
		}
		t.Run(fmt.Sprintf("seq%03d-%s", rec.Seq, rec.Kind), func(t *testing.T) {
			probeCrashPoint(t, spec, base, rec.Seq, false)
		})
		if rec.Kind == journal.KindCheckpoint {
			t.Run(fmt.Sprintf("seq%03d-%s-after-swap", rec.Seq, rec.Kind), func(t *testing.T) {
				probeCrashPoint(t, spec, base, rec.Seq, true)
			})
		}
	}
	if checkpoints == 0 {
		t.Error("baseline WAL holds no checkpoint records — the matrix never probed a swap boundary")
	}
	t.Logf("matrix over %d WAL records (%d checkpoints), stride %d", len(recs), checkpoints, stride)
}
