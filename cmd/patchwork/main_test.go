package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/pcap"
)

// smallCampaign is a seeded 2-site campaign (STAR, NCSA) writing under out.
func smallCampaign(out string) campaignFlags {
	return campaignFlags{
		mode: "all", runs: 1, samples: 2, sampleSec: 2, method: "tcpdump",
		trunc: 200, seed: 7, out: out, nSites: 2, checkpointSec: 5, lanes: 1,
	}
}

// TestCampaignPcapFilesMatchBundle: the pcap files the CLI's sink writes
// during the run equal, byte for byte, the streams the default sink keeps
// in Bundle.Pcaps for the same campaign, and each reads to EOF with no
// torn tail.
func TestCampaignPcapFilesMatchBundle(t *testing.T) {
	out := t.TempDir()
	fl := smallCampaign(out)
	if rc := campaignMain(fl); rc != 0 {
		t.Fatalf("campaign exited %d", rc)
	}
	spec, err := specFromFlags(fl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.RunExec(spec, filepath.Join(t.TempDir(), "journal"), true, campaign.Exec{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range res.Profile.Bundles {
		files, err := filepath.Glob(filepath.Join(out, b.Site, "capture-*.pcap"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != len(b.Pcaps) || b.Captures != len(b.Pcaps) {
			t.Fatalf("%s: %d pcap files, bundle holds %d (Captures=%d)", b.Site, len(files), len(b.Pcaps), b.Captures)
		}
		for i, want := range b.Pcaps {
			path := filepath.Join(out, b.Site, fmt.Sprintf("capture-%02d.pcap", i))
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: %d bytes on disk, bundle stream %d bytes", path, len(got), len(want))
			}
			rd, err := pcap.NewReader(bytes.NewReader(got))
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if err := rd.ForEach(func(*pcap.Record) error { return nil }); err != nil {
				t.Errorf("%s: %v", path, err)
			}
			if rd.Torn() {
				t.Errorf("%s: torn tail", path)
			}
			total++
		}
	}
	if total == 0 {
		t.Fatal("campaign harvested no pcaps")
	}
}

// TestCampaignPcapWriteErrorCounted: a blocked pcap path fails that
// write. The run exits 1, counts the failure under
// patchwork_storage_errors_total{artifact="pcap"}, and still writes the
// health and remedy artifacts and the other site's pcaps. Blocking the
// whole site directory also fails its run.log; blocking one capture
// file leaves run.log writable, so only the sink can report the error.
func TestCampaignPcapWriteErrorCounted(t *testing.T) {
	for _, tc := range []struct {
		name  string
		block func(out string) error
	}{
		{"site-dir", func(out string) error {
			return os.WriteFile(filepath.Join(out, "STAR"), []byte("not a directory"), 0o644)
		}},
		{"capture-file", func(out string) error {
			return os.MkdirAll(filepath.Join(out, "STAR", "capture-00.pcap"), 0o755)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := t.TempDir()
			if err := tc.block(out); err != nil {
				t.Fatal(err)
			}
			fl := smallCampaign(out)
			fl.metrics = filepath.Join(t.TempDir(), "run.prom")
			if rc := campaignMain(fl); rc != 1 {
				t.Fatalf("campaign exited %d, want 1", rc)
			}
			prom, err := os.ReadFile(fl.metrics)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(prom), `patchwork_storage_errors_total{artifact="pcap"} 1`) {
				t.Error(`metrics lack patchwork_storage_errors_total{artifact="pcap"} 1`)
			}
			for _, name := range []string{"health/alerts.jsonl", "remedy/actions.jsonl", "remedy/summary.txt"} {
				if _, err := os.Stat(filepath.Join(out, name)); err != nil {
					t.Errorf("artifact missing after the pcap failure: %v", err)
				}
			}
			if files, _ := filepath.Glob(filepath.Join(out, "NCSA", "capture-*.pcap")); len(files) == 0 {
				t.Error("the unblocked site wrote no pcaps")
			}
		})
	}
}
