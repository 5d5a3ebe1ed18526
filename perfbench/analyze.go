package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/flowstore"
	"repro/internal/pcap"
	"repro/internal/sim"
	"repro/internal/trafficgen"
)

// corpusSize shapes the analyze workload's input: Fig13-style site
// profiles, samples captures per site. The hot-flow capacity is far
// below the corpus's distinct-flow count, so spilling, the flow-store
// merge and heavy-hitter churn all run.
type corpusSize struct {
	sites     int
	samples   int // captures per site
	maxFrames int // per capture
	hotFlows  int
	queries   int // per pass; two passes are run
}

func (b *bench) corpusSize() corpusSize {
	if b.smoke {
		return corpusSize{sites: 2, samples: 2, maxFrames: 400, hotFlows: 64, queries: 40}
	}
	return corpusSize{sites: 14, samples: 4, maxFrames: 10000, hotFlows: 4096, queries: 1000}
}

// flowCounts gives each site's per-sample flow counts from its profile,
// without drawing them: sample j gets the lognormal's (j+0.5)/samples
// quantile, and storm samples (80x the count, as the profile's storm
// draw gives) are spread evenly over the corpus, as many as
// StormProbability times the number of samples rounds to. Drawn counts
// would let the seed decide, through the rare storms, how much work a
// run is; these keep the sites' flow-count distributions and the
// profiles' storm share.
func flowCounts(profiles []trafficgen.Profile, samples int) [][]int {
	out := make([][]int, len(profiles))
	for i, p := range profiles {
		for j := 0; j < samples; j++ {
			z := math.Sqrt2 * math.Erfinv(2*(float64(j)+0.5)/float64(samples)-1)
			n := int(math.Exp(p.FlowsPerSampleLogMean + z*p.FlowsPerSampleLogSigma))
			out[i] = append(out[i], max(n, 1))
		}
	}
	total := len(profiles) * samples
	if total == 0 {
		return out
	}
	storms := int(math.Round(profiles[0].StormProbability * float64(total)))
	for k := 0; k < storms; k++ {
		g := (2*k + 1) * total / (2 * storms)
		out[g/samples][g%samples] *= 80
	}
	return out
}

// corpusFile is one generated capture and the frames written to it.
type corpusFile struct {
	site   string
	path   string
	frames int
}

// genCorpus writes the seeded corpus under dir in the SITE/capture-NN.pcap
// layout patchwork writes, at a 200-byte snap length.
func genCorpus(dir string, seed uint64, size corpusSize) ([]corpusFile, error) {
	profiles := trafficgen.MakeSiteProfiles(seed, size.sites)
	arena := trafficgen.NewFrameArena()
	var frames []trafficgen.TimedFrame
	var files []corpusFile
	// The counts come from the default seed's profiles, so every seed
	// runs the same flow counts; the seed varies the traffic itself.
	counts := flowCounts(trafficgen.MakeSiteProfiles(defaultSeed, size.sites), size.samples)
	for i, p := range profiles {
		gen := trafficgen.NewGenerator(p, seed*1000+uint64(i))
		siteDir := filepath.Join(dir, p.Site)
		if err := os.MkdirAll(siteDir, 0o755); err != nil {
			return nil, err
		}
		for s, flows := range counts[i] {
			arena.Reset()
			var err error
			frames, err = gen.SampleInto(trafficgen.SampleConfig{
				Duration:  20 * sim.Second,
				MaxFrames: size.maxFrames,
				FlowCount: flows,
			}, frames[:0], arena.Alloc)
			if err != nil {
				return nil, err
			}
			path := filepath.Join(siteDir, fmt.Sprintf("capture-%02d.pcap", s))
			if err := writePcap(path, int64(s)*int64(5*sim.Minute), frames); err != nil {
				return nil, err
			}
			files = append(files, corpusFile{site: p.Site, path: path, frames: len(frames)})
		}
	}
	return files, nil
}

func writePcap(path string, startNs int64, frames []trafficgen.TimedFrame) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w, err := pcap.NewWriter(f, pcap.FileHeader{SnapLen: 200, Nanosecond: true})
	if err == nil {
		for _, tf := range frames {
			if err = w.WriteRecord(startNs+int64(tf.At), tf.Data, len(tf.Data)); err != nil {
				break
			}
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// analyzeOutputs are the files a traced run must reproduce byte for
// byte: every CSV and the flow store.
func analyzeOutputs(dir string) ([]string, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return nil, err
	}
	for i, n := range names {
		names[i] = filepath.Base(n)
	}
	return append(names, "flows.pwfs"), nil
}

var digestedRE = regexp.MustCompile(`digested (\d+) captures \((\d+) frames, (\d+) flows\)`)

func analyzeUntraced(b *bench) (map[string]Metric, *untracedRef, error) {
	size := b.corpusSize()
	corpus := filepath.Join(b.work, "corpus")

	// Set-up: generate the corpus several times; report the median and
	// check generation is deterministic.
	var s samples
	var files []corpusFile
	var corpusDigest string
	for i := 0; i < 3; i++ {
		start := time.Now()
		got, err := genCorpus(corpus, b.seed, size)
		s.setup = append(s.setup, time.Since(start).Seconds())
		if err != nil {
			return nil, nil, fmt.Errorf("generating corpus: %w", err)
		}
		sums, err := treeDigests(corpus)
		if err != nil {
			return nil, nil, err
		}
		d := digestOf(sums)
		if i == 0 {
			files, corpusDigest = got, d
		}
		b.op(d == corpusDigest, "corpus generation %d differs from the first", i)
	}
	wantFrames := 0
	for _, f := range files {
		wantFrames += f.frames
	}

	var ref *untracedRef
	var firstOut map[string]string
	err := b.timed(func(rep int) error {
		out := filepath.Join(b.work, fmt.Sprintf("out-%d", rep))
		p, err := runProc(filepath.Join(b.bin, "pwanalyze"), "-in", corpus, "-out", out,
			"-hotflows", strconv.Itoa(size.hotFlows))
		if err != nil {
			return err
		}
		s.add(rep, float64(wantFrames), p.Wall, p)

		ok := b.op(p.Exit == 0, "pwanalyze exited %d: %s", p.Exit, bytes.TrimSpace(p.Stderr))
		m := digestedRE.FindSubmatch(p.Stdout)
		var captures, frames, flows int64
		if m != nil {
			captures, _ = strconv.ParseInt(string(m[1]), 10, 64)
			frames, _ = strconv.ParseInt(string(m[2]), 10, 64)
			flows, _ = strconv.ParseInt(string(m[3]), 10, 64)
		}
		ok = b.op(ok && m != nil && captures == int64(len(files)) && frames == int64(wantFrames),
			"pwanalyze digested %d captures, %d frames; corpus has %d, %d", captures, frames, len(files), wantFrames) && ok
		if ok {
			checkIndex(b, filepath.Join(out, "index.json"), files)
		}
		names, err := analyzeOutputs(out)
		if err != nil {
			return err
		}
		sums := make(map[string]string)
		for _, n := range names {
			d, err := fileDigest(filepath.Join(out, n))
			b.op(err == nil, "reading %s: %v", n, err)
			sums[n] = d
		}
		if rep == 0 {
			firstOut = sums
			store, err := flowstore.Open(filepath.Join(out, "flows.pwfs"))
			rows := int64(0)
			if b.op(err == nil, "opening flows.pwfs: %v", err) {
				rows = store.Rows()
				b.op(!store.Torn(), "flows.pwfs has a torn tail")
				store.Close()
			}
			ref = &untracedRef{outDir: out, compare: names, counts: map[string]int64{
				"frames": frames, "flows": flows, "store_rows": rows,
			}}
			return nil
		}
		for _, n := range names {
			b.op(sums[n] == firstOut[n], "%s differs between repeats 0 and %d", n, rep)
		}
		return os.RemoveAll(out)
	})
	if err != nil {
		return nil, nil, err
	}

	// Closed loop of flow-store queries from one client, in its own
	// process, against the store the first repeat wrote.
	qpath := filepath.Join(b.work, "queries.json")
	p, err := runProc(filepath.Join(b.bin, "perfbench"), "-child", "query",
		filepath.Join(ref.outDir, "flows.pwfs"), qpath, strconv.FormatUint(b.seed, 10), strconv.Itoa(size.queries))
	if err != nil {
		return nil, nil, err
	}
	if p.Exit != 0 {
		return nil, nil, fmt.Errorf("query loop exited %d: %s", p.Exit, bytes.TrimSpace(p.Stderr))
	}
	var qr queryRun
	if err := readJSON(qpath, &qr); err != nil {
		return nil, nil, err
	}
	checkQueries(b, &qr)
	ref.queries = &qr

	fmt.Printf("queries %d: query_p50_ms %.4f query_p99_ms %.4f\n",
		len(qr.LatMs), quantile(qr.LatMs, 0.50), quantile(qr.LatMs, 0.99))
	return s.metrics(), ref, nil
}

// checkIndex checks every corpus capture was digested: the index has an
// entry for it with the frame count written. Entries are ordered by
// (site, start), and a site's samples start 5 minutes apart.
func checkIndex(b *bench, path string, files []corpusFile) {
	f, err := os.Open(path)
	if !b.op(err == nil, "opening index: %v", err) {
		return
	}
	defer f.Close()
	ix, err := analysis.ReadIndex(f)
	if !b.op(err == nil, "reading index: %v", err) {
		return
	}
	bySite := make(map[string][]analysis.IndexEntry)
	for _, e := range ix.Entries {
		bySite[e.Site] = append(bySite[e.Site], e)
	}
	seen := make(map[string]int)
	for _, cf := range files {
		i := seen[cf.site]
		seen[cf.site]++
		entries := bySite[cf.site]
		b.op(i < len(entries) && entries[i].Frames == cf.frames,
			"capture %s not digested with its %d frames", cf.path, cf.frames)
	}
}

// queryRun is the outcome of a closed-loop query batch.
type queryRun struct {
	LatMs      []float64 `json:"lat_ms"`      // every query of every pass
	Rows       [][]int   `json:"rows"`        // per pass, per query
	KeyQueries []bool    `json:"key_queries"` // per query: a 5-tuple lookup
	TotalRows  int64     `json:"total_rows"`  // over all passes
	QueryNanos int64     `json:"query_nanos"` // time inside Query calls
	OpenNanos  int64     `json:"open_nanos"`  // time inside Open calls
	StoreRows  int64     `json:"store_rows"`  // rows in the store
	StoreSegs  int       `json:"store_segments"`
	Failures   []string  `json:"failures"`
}

// checkQueries counts each query as an operation: it must succeed,
// return the same rows on every pass, and a key lookup must find its
// key.
func checkQueries(b *bench, qr *queryRun) {
	for _, f := range qr.Failures {
		b.op(false, "query: %s", f)
	}
	if !b.op(len(qr.Rows) > 0, "no query passes ran") {
		return
	}
	for i, n := range qr.Rows[0] {
		same := true
		for _, pass := range qr.Rows[1:] {
			same = same && i < len(pass) && pass[i] == n
		}
		b.op(same && (!qr.KeyQueries[i] || n > 0), "query %d returned %d rows, inconsistent across passes or missing its key", i, n)
	}
}

// planQueries draws n queries from the store: even ones are 5-tuple
// lookups of keys stored in it, odd ones per-site time ranges covering
// a tenth of the site's span.
func planQueries(path string, seed uint64, n int) ([]flowstore.Query, error) {
	st, err := flowstore.Open(path)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var keys []flowstore.Key
	spans := make(map[string][2]int64)
	err = st.ForEach(func(r flowstore.Rec) error {
		keys = append(keys, r.Key)
		s, ok := spans[r.Site]
		if !ok {
			s = [2]int64{r.FirstNs, r.LastNs}
		}
		s[0], s[1] = min(s[0], r.FirstNs), max(s[1], r.LastNs)
		spans[r.Site] = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(keys) == 0 {
		return nil, errors.New("flow store is empty")
	}
	sites := make([]string, 0, len(spans))
	for s := range spans {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	r := rand.New(rand.NewSource(int64(seed)))
	qs := make([]flowstore.Query, n)
	for i := range qs {
		if i%2 == 0 {
			k := keys[r.Intn(len(keys))]
			qs[i] = flowstore.Query{Key: &k}
			continue
		}
		site := sites[r.Intn(len(sites))]
		lo, hi := spans[site][0], spans[site][1]
		width := (hi-lo)/10 + 1
		from := lo + r.Int63n(hi-lo+1)
		qs[i] = flowstore.Query{Site: site, FromNs: from, ToNs: from + width}
	}
	return qs, nil
}

// runQueries runs the batch passes times, opening the store per query
// as /api/flows does. With a tracer, each query's Open and Query calls
// are spans.
func runQueries(path string, qs []flowstore.Query, passes int, tr *Tracer) *queryRun {
	qr := &queryRun{}
	for _, q := range qs {
		qr.KeyQueries = append(qr.KeyQueries, q.Key != nil)
	}
	for pass := 0; pass < passes; pass++ {
		rows := make([]int, len(qs))
		for i, q := range qs {
			start := time.Now()
			id := tr.Begin("flowstore.Open")
			st, err := flowstore.Open(path)
			tr.End(id)
			opened := time.Now()
			if err != nil {
				qr.Failures = append(qr.Failures, err.Error())
				continue
			}
			id = tr.Begin("flowstore.Store.Query")
			recs, err := st.Query(q)
			tr.End(id)
			queried := time.Now()
			st.Close()
			qr.LatMs = append(qr.LatMs, float64(time.Since(start))/1e6)
			qr.OpenNanos += int64(opened.Sub(start))
			qr.QueryNanos += int64(queried.Sub(opened))
			if err != nil {
				qr.Failures = append(qr.Failures, err.Error())
				continue
			}
			rows[i] = len(recs)
			qr.TotalRows += int64(len(recs))
		}
		qr.Rows = append(qr.Rows, rows)
	}
	return qr
}

// queryChild is the query loop's own process.
func queryChild(args []string) error {
	if len(args) != 4 {
		return errors.New("usage: -child query STORE OUT SEED N")
	}
	seed, err := strconv.ParseUint(args[2], 10, 64)
	if err != nil {
		return err
	}
	n, err := strconv.Atoi(args[3])
	if err != nil {
		return err
	}
	qs, err := planQueries(args[0], seed, n)
	if err != nil {
		return err
	}
	return writeJSON(args[1], runQueries(args[0], qs, 2, nil))
}

// analyzeTraced runs pwanalyze's pipeline in process on the same corpus
// and settings, with a span around each call into a layer, then one pass
// of the same query batch against the store it wrote.
func analyzeTraced(b *bench, tr *Tracer) (*tracedOut, error) {
	size := b.corpusSize()
	corpus := filepath.Join(b.work, "corpus")
	out := b.tracedOutDir()
	acapDir := filepath.Join(out, "acaps")
	if err := os.MkdirAll(acapDir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	err := filepath.WalkDir(corpus, func(path string, de fs.DirEntry, err error) error {
		if err == nil && !de.IsDir() && strings.HasSuffix(path, ".pcap") {
			paths = append(paths, path)
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	start := time.Now()
	root := tr.Begin("analyze")
	fsys := storeFS(tr, "flowstore")
	flowPath := filepath.Join(out, "flows.pwfs")
	id := tr.Begin("flowstore.CreateFS")
	spill, err := flowstore.CreateFS(fsys, flowPath)
	tr.End(id)
	if err != nil {
		return nil, err
	}
	d := analysis.NewDigester(analysis.DigestOptions{MaxHotFlows: size.hotFlows, Spill: spill})
	var index analysis.Index
	for n, path := range paths {
		site := filepath.Base(filepath.Dir(path))
		if err := digestCapture(tr, d, &index, path, site, filepath.Join(acapDir, fmt.Sprintf("%s-%03d.json", site, n+1))); err != nil {
			return nil, err
		}
	}
	id = tr.Begin("analysis.FlowTable.Flush")
	spilledBeforeFlush := d.Flows().SpilledFlows()
	err = d.Flows().Flush()
	if err == nil {
		err = spill.Close()
	}
	tr.End(id)
	if err != nil {
		return nil, err
	}
	id = tr.Begin("flowstore.OpenFS")
	store, err := flowstore.OpenFS(fsys, flowPath)
	tr.End(id)
	if err != nil {
		return nil, err
	}
	id = tr.Begin("analysis.FlowTable.Aggregates")
	flows, err := d.Flows().Aggregates(store)
	tr.End(id)
	storeRows, storeSegs := store.Rows(), store.Segments()
	store.Close()
	if err != nil {
		return nil, err
	}
	id = tr.Begin("analysis.Index.Encode")
	err = writeFile(filepath.Join(out, "index.json"), index.Encode)
	tr.End(id)
	if err != nil {
		return nil, err
	}
	if err := writeAnalysisCSVs(tr, out, d, flows); err != nil {
		return nil, err
	}
	tr.End(root)
	wall := time.Since(start)

	qs, err := planQueries(flowPath, b.seed, size.queries)
	if err != nil {
		return nil, err
	}
	qid := tr.Begin("queries")
	qr := runQueries(flowPath, qs, 1, tr)
	tr.End(qid)
	if len(qr.Failures) > 0 {
		return nil, fmt.Errorf("traced query: %s", qr.Failures[0])
	}

	st := spanTotals(tr.Spans())
	secs := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			ns += st[n].Self
		}
		return float64(ns) / 1e9
	}
	spilledFrac := 0.0
	if storeRows > 0 {
		spilledFrac = float64(spilledBeforeFlush) / float64(storeRows)
	}
	return &tracedOut{
		Frames: float64(d.Frames()), Wall: wall.Seconds(),
		OutDir: out,
		Values: map[string]float64{
			"pcap.read_s":           secs("pcap.NewReader", "pcap.Reader.ForEach"),
			"analysis.acap_s":       secs("analysis.DigestFrame", "analysis.Acap.Encode", "analysis.Summarize"),
			"analysis.digest_s":     secs("analysis.Digester.Frame", "analysis.Digester.StartSample", "analysis.Digester.EndSample"),
			"analysis.aggregate_s":  secs("analysis.FlowTable.Flush", "analysis.FlowTable.Aggregates"),
			"analysis.csv_s":        secs("analysis.WriteCSV", "analysis.Index.Encode"),
			"analysis.frames":       float64(d.Frames()),
			"analysis.flows":        float64(len(flows)),
			"analysis.spilled_frac": spilledFrac,
			"flowstore.append_s":    float64(st["flowstore.write"].Busy+st["flowstore.sync"].Busy) / 1e9,
			"flowstore.bytes":       float64(st["flowstore.write"].Bytes),
			"flowstore.segments":    float64(storeSegs),
			"flowstore.query_s":     float64(qr.QueryNanos+qr.OpenNanos) / 1e9,
			"flowstore.query_rows":  float64(qr.TotalRows),
		},
		Counts: map[string]int64{
			"frames": int64(d.Frames()), "flows": int64(len(flows)), "store_rows": storeRows,
		},
	}, nil
}

// digestCapture is pwanalyze's per-capture step: stream the pcap through
// the acap builder and the digester, then encode and index the acap.
func digestCapture(tr *Tracer, d *analysis.Digester, index *analysis.Index, path, site, acapPath string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	id := tr.Begin("pcap.NewReader")
	rd, err := pcap.NewReader(f)
	tr.End(id)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	acap := &analysis.Acap{Site: site}
	id = tr.Begin("analysis.Digester.StartSample")
	d.StartSample(site)
	tr.End(id)
	each := tr.Begin("pcap.Reader.ForEach")
	acapCalls := tr.Batch("analysis.DigestFrame")
	frameCalls := tr.Batch("analysis.Digester.Frame")
	err = rd.ForEach(func(rec *pcap.Record) error {
		tr.Enter(acapCalls)
		r := analysis.DigestFrame(rec.TimestampNanos, rec.Data, rec.OriginalLength)
		tr.Exit(acapCalls)
		acap.Records = append(acap.Records, r)
		tr.Enter(frameCalls)
		err := d.Frame(rec.TimestampNanos, rec.Data, rec.OriginalLength)
		tr.Exit(frameCalls)
		return err
	})
	tr.End(each)
	if err != nil {
		return err
	}
	if rd.Torn() {
		return fmt.Errorf("%s: torn tail", path)
	}
	id = tr.Begin("analysis.Digester.EndSample")
	d.EndSample()
	tr.End(id)
	id = tr.Begin("analysis.Acap.Encode")
	err = writeFile(acapPath, acap.Encode)
	tr.End(id)
	if err != nil {
		return err
	}
	id = tr.Begin("analysis.Summarize")
	index.Add(analysis.Summarize(acap, acapPath))
	tr.End(id)
	return nil
}

// writeAnalysisCSVs writes pwanalyze's CSV outputs from the digester's
// folded state.
func writeAnalysisCSVs(tr *Tracer, out string, d *analysis.Digester, flows []analysis.FlowAggregate) error {
	writers := []struct {
		name string
		fn   func(io.Writer) error
	}{
		{"frame_sizes.csv", func(f io.Writer) error { return analysis.WriteFrameSizeHistCSV(f, d.FrameSizeHist()) }},
		{"header_occurrence.csv", func(f io.Writer) error {
			return analysis.WriteHeaderOccurrenceMapCSV(f, d.HeaderOccurrence())
		}},
		{"site_headers.csv", func(f io.Writer) error { return analysis.WriteSiteHeaderStatsCSV(f, d.SiteHeaderStats()) }},
		{"flow_counts.csv", func(f io.Writer) error { return analysis.WriteFlowCountCSV(f, d.SampleFlowCounts()) }},
		{"flow_aggregate.csv", func(f io.Writer) error { return analysis.WriteFlowAggregateCSV(f, flows, 100) }},
		{"encapsulations.csv", func(f io.Writer) error { return analysis.WriteStackPatternsCSV(f, d.EncapCensus(), 50) }},
		{"site_protocols.csv", func(f io.Writer) error { return analysis.WriteSiteProtocolCSV(f, d.SiteProtocolShares()) }},
		{"tcp_flags.csv", func(f io.Writer) error { return analysis.WriteTCPFlagsCSV(f, d.TCPFlags()) }},
	}
	for _, w := range writers {
		id := tr.Begin("analysis.WriteCSV")
		err := writeFile(filepath.Join(out, w.name), w.fn)
		tr.End(id)
		if err != nil {
			return err
		}
	}
	return nil
}
