package main

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/capture"
	"repro/internal/hostsim"
	"repro/internal/sim"
	"repro/internal/units"
)

// table2Rows is the Table 2 sweep pwexperiments -id table2 runs: DPDK,
// 64-byte truncation, 60:80 dirty thresholds, 4096-deep Rx queues, 30 ms
// windows. For each frame size the core count rises from 1 until loss
// drops below 1%.
var table2Rows = []struct {
	frameSize  int
	rate       units.BitRate
	paperCores int
}{
	{1514, 100 * units.Gbps, 3},
	{1024, 100 * units.Gbps, 5},
	{512, 100 * units.Gbps, 15},
	{128, 28 * units.Gbps, 15},
}

const (
	linerateSnap   = 64
	linerateWindow = 30 * sim.Millisecond
	maxCores       = 15
	setupRepeats   = 5
)

// newGridPoint builds the kernel, host and engine for one grid point.
func newGridPoint(cores int) (*sim.Kernel, *hostsim.Host, *capture.Engine, error) {
	k := sim.NewKernel()
	host, err := hostsim.New(hostsim.Config{DirtyBackgroundRatio: 60, DirtyRatio: 80})
	if err != nil {
		return nil, nil, nil, err
	}
	e, err := capture.NewEngine(k, capture.Config{
		Method: capture.MethodDPDK, SnapLen: linerateSnap, Cores: cores,
		RxQueueDepth: 4096, Host: host,
	})
	return k, host, e, err
}

// gridPoint is one (frame size, cores) run of the sweep.
type gridPoint struct {
	FrameSize  int           `json:"frame_size"`
	Cores      int           `json:"cores"`
	Stats      capture.Stats `json:"stats"`
	Host       hostsim.Stats `json:"host"`
	Events     uint64        `json:"events"`
	HighWater  int           `json:"high_water"`
	SetupNanos int64         `json:"setup_ns"`
	OfferNanos int64         `json:"offer_ns"`
}

// sweep is one full pass over the grid and the table it derives.
type sweep struct {
	Points []gridPoint `json:"points"`
	Table  [][]string  `json:"table"`
}

func (s *sweep) totals() (frames int64, setup, offer time.Duration) {
	for _, p := range s.Points {
		frames += p.Stats.Received
		setup += time.Duration(p.SetupNanos)
		offer += time.Duration(p.OfferNanos)
	}
	return frames, setup, offer
}

// runSweep runs the grid. In smoke size it runs a single point: the
// first row at its paper core count. With a tracer, construction and
// each OfferLoad call are spans.
func runSweep(smoke bool, tr *Tracer) (*sweep, error) {
	s := &sweep{Table: [][]string{{"frame_size_B", "rate", "paper_cores", "min_cores_measured", "loss_percent"}}}
	rows := table2Rows
	if smoke {
		rows = rows[:1]
	}
	for _, row := range rows {
		minCores, loss := 0, 0.0
		first := 1
		if smoke {
			first = row.paperCores
		}
		for c := first; c <= maxCores; c++ {
			p := gridPoint{FrameSize: row.frameSize, Cores: c}
			// Construction takes microseconds, so it is repeated and the
			// median kept; the last engine built is the one measured.
			var k *sim.Kernel
			var host *hostsim.Host
			var e *capture.Engine
			setups := make([]float64, setupRepeats)
			for i := range setups {
				start := time.Now()
				id := tr.Begin("linerate.setup")
				var err error
				k, host, e, err = newGridPoint(c)
				tr.End(id)
				setups[i] = float64(time.Since(start))
				if err != nil {
					return nil, err
				}
			}
			p.SetupNanos = int64(median(setups))
			offered := time.Now()
			id := tr.Begin("capture.OfferLoad")
			p.Stats = capture.OfferLoad(k, e, row.frameSize, row.rate, linerateWindow)
			tr.End(id)
			p.OfferNanos = int64(time.Since(offered))
			p.Host = host.Stats
			p.Events, p.HighWater = k.EventsProcessed(), k.QueueHighWatermark()
			s.Points = append(s.Points, p)
			loss = float64(p.Stats.LossPercent())
			if loss < 1 {
				minCores = c
				break
			}
			if smoke {
				break
			}
		}
		cores := "infeasible<=15"
		if minCores > 0 {
			cores = strconv.Itoa(minCores)
		}
		s.Table = append(s.Table, []string{strconv.Itoa(row.frameSize), row.rate.String(),
			strconv.Itoa(row.paperCores), cores, trimFloat(loss)})
	}
	return s, nil
}

// trimFloat formats v the way the results tables do: two decimals,
// trailing zeros trimmed.
func trimFloat(v float64) string {
	s := strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.2f", v), "0"), ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// linerateChild is one sweep in its own process.
func linerateChild(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: -child linerate OUT full|smoke")
	}
	s, err := runSweep(args[1] == "smoke", nil)
	if err != nil {
		return err
	}
	return writeJSON(args[0], s)
}

func linerateUntraced(b *bench) (map[string]Metric, *untracedRef, error) {
	want, err := readTable2(b.root)
	if err != nil {
		return nil, nil, err
	}
	size := "full"
	if b.smoke {
		size = "smoke"
	}
	var samp samples
	var first *sweep
	err = b.timed(func(rep int) error {
		path := filepath.Join(b.work, fmt.Sprintf("sweep-%d.json", rep))
		p, err := runProc(filepath.Join(b.bin, "perfbench"), "-child", "linerate", path, size)
		if err != nil {
			return err
		}
		if p.Exit != 0 {
			return fmt.Errorf("linerate sweep exited %d: %s", p.Exit, bytes.TrimSpace(p.Stderr))
		}
		var s sweep
		if err := readJSON(path, &s); err != nil {
			return err
		}
		frames, setup, offer := s.totals()
		samp.setup = append(samp.setup, setup.Seconds())
		samp.add(rep, float64(frames), offer, p)
		if first == nil {
			first = &s
		}
		checkSweep(b, &s, first, want)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return samp.metrics(), &untracedRef{counts: sweepCounts(first)}, nil
}

// checkSweep counts each grid point as an operation: its statistics must
// equal the first sweep's, and the table row it belongs to must equal
// the committed results/table2.csv.
func checkSweep(b *bench, s, first *sweep, want [][]string) {
	rowOK := make(map[string]bool) // frame size -> row matches
	for i, row := range s.Table {
		if i > 0 {
			rowOK[row[0]] = i < len(want) && slices.Equal(row, want[i]) && slices.Equal(s.Table[0], want[0])
		}
	}
	for i, p := range s.Points {
		same := i < len(first.Points) && p.Stats == first.Points[i].Stats && p.Host == first.Points[i].Host
		ok := rowOK[strconv.Itoa(p.FrameSize)]
		b.op(same && ok, "grid point %dB/%d cores: stats equal the first sweep's: %v; table row equals results/table2.csv: %v",
			p.FrameSize, p.Cores, same, ok)
	}
}

// readTable2 reads the committed Table 2 result.
func readTable2(root string) ([][]string, error) {
	data, err := os.ReadFile(filepath.Join(root, "results", "table2.csv"))
	if err != nil {
		return nil, err
	}
	return csv.NewReader(bytes.NewReader(data)).ReadAll()
}

// sweepCounts are the deterministic counts a traced sweep must
// reproduce.
func sweepCounts(s *sweep) map[string]int64 {
	c := map[string]int64{"points": int64(len(s.Points))}
	for _, p := range s.Points {
		c["received"] += p.Stats.Received
		c["captured"] += p.Stats.Captured
		c["dropped"] += p.Stats.Dropped
		c["stored_bytes"] += p.Stats.StoredBytes
		c["events"] += int64(p.Events)
		c["writev_calls"] += p.Host.WritevCalls
	}
	return c
}

// linerateTraced runs the sweep in process with spans around
// construction and each OfferLoad call.
func linerateTraced(b *bench, tr *Tracer) (*tracedOut, error) {
	root := tr.Begin("linerate")
	s, err := runSweep(b.smoke, tr)
	tr.End(root)
	if err != nil {
		return nil, err
	}
	frames, _, offer := s.totals()
	counts := sweepCounts(s)
	var hw int
	for _, p := range s.Points {
		hw = max(hw, p.HighWater)
	}
	var blocked int64
	for _, p := range s.Points {
		blocked += p.Host.BlockedCalls
	}
	return &tracedOut{
		Frames: float64(frames), Wall: offer.Seconds(),
		Values: map[string]float64{
			"sim.events":               float64(counts["events"]),
			"sim.events_per_frame":     float64(counts["events"]) / float64(max(frames, 1)),
			"sim.queue_high_watermark": float64(hw),
			"capture.frames_captured":  float64(counts["captured"]),
			"capture.frames_dropped":   float64(counts["dropped"]),
			"hostsim.writev_calls":     float64(counts["writev_calls"]),
			"hostsim.blocked_calls":    float64(blocked),
		},
		Counts: counts,
	}, nil
}
