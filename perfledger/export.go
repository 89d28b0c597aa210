package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/core/device"
	"repro/internal/core/sampleandhold"
	"repro/internal/flow"
	"repro/internal/netflow"
	"repro/internal/netflow/reliable"
	"repro/internal/trace"
)

// cosCycle is the COS workload's cycle length in intervals, and
// cosReportsPerSecond its open-loop close schedule.
const (
	cosCycle            = 8
	cosReportsPerSecond = 20
	cosWarmupCycles     = 4
)

// drainTimeout bounds the wait for the collector to apply every report
// after the window.
const drainTimeout = 20 * time.Second

// runExportPaced is cos-export-paced: COS calibration at x1, pre-decoded in
// memory, fed to a Device running sample and hold. Every report goes
// through NetFlow v5 encoding, a reliable.Exporter with a disk spool, one
// loopback TCP connection, a reliable.Server with a journal, and a handler
// that decodes and aggregates. Open loop: intervals close on a fixed
// schedule and each report is timed from when its close was due.
func runExportPaced(o options) (*outcome, error) {
	in, err := makeInputs("COS", 1, cosCycle, o.seed, false)
	if err != nil {
		return nil, err
	}
	T := uint64(0.0001 * in.meta.Capacity())
	cfg := sampleandhold.Config{
		Entries: 4096, Threshold: T, Oversampling: 4, Preserve: true,
		EarlyRemoval: 0.15, Seed: 1,
	}
	out := &outcome{correct: true, config: fmt.Sprintf("cos-export-paced COS x1 cycle %d 5-tuple %d reports/s fsync batch/batch %+v",
		cosCycle, cosReportsPerSecond, cfg)}
	// Sample and hold has no zero-false-negative guarantee; the oracle
	// checks lower bounds and measures the large-flow error.
	newOra := func() *oracle { return newOracle(in, T, 0) }
	run := func(traced bool, seconds float64, setups int, f fault) (*pass, *exportPath, error) {
		e := &exportPath{cfg: cfg, dir: o.dir, traced: traced, fault: f, truth0: in.truth[0], meta: in.meta}
		p, err := e.run(in, newOra(), seconds, setups)
		return p, e, err
	}

	var passes []*pass
	if !o.traced {
		p, e, err := run(false, o.seconds, setupsExport, noFault)
		if err != nil {
			return nil, err
		}
		p.endToEnd(&out.metrics)
		out.delivery(p)
		out.transport(e)
		passes = []*pass{p}
	} else {
		plain, e0, err := run(false, o.seconds/2, 1, noFault)
		if err != nil {
			return nil, err
		}
		out.transport(e0)
		tp, e, err := run(true, o.seconds/2, 1, noFault)
		if err != nil {
			return nil, err
		}
		out.transport(e)
		out.compareTraced(plain, tp)
		if out.metrics, err = layerMetrics(e.layers(tp, plain, out)); err != nil {
			return nil, err
		}
		passes = []*pass{tp, plain}
	}
	ok, err := out.selftest([]fault{inflateEstimate}, func(f fault) (*oracle, error) {
		p, _, err := run(false, 0, 1, f)
		if err != nil {
			return nil, err
		}
		return p.ora, nil
	})
	if err != nil {
		return nil, err
	}
	out.verdict(ok, oracles(passes)...)
	return out, nil
}

// delivery prints the report delivery latencies. They are observed, not
// bounded metrics: they sum about seventy fsyncs per report (a spool fsync
// per ack, a journal fsync per frame), and on a shared virtual disk their
// run-to-run spread was 0.11–0.38 (median) and 0.26–0.52 (p90) over ten
// seeds, wider than any bound the benchmark can hold.
func (o *outcome) delivery(p *pass) {
	o.note("delivery: report_delivery_p50_ms %.4g, report_delivery_p90_ms %.4g over %d reports (observed, unbounded)",
		quantile(p.deliverMs, 0.5), quantile(p.deliverMs, 0.9), len(p.deliverMs))
}

// transport folds the collector's exactly-once accounting into the
// verdict: any duplicate or gap fails the run.
func (o *outcome) transport(e *exportPath) {
	st := e.srvStats
	if st.Duplicates+st.Gaps > 0 || e.col.unknown > 0 {
		o.correct = false
	}
	pass := "untraced"
	if e.traced {
		pass = "traced"
	}
	o.note("collector (%s pass): %d frames applied, %d duplicates, %d gaps, %d frames matching no report",
		pass, st.Delivered, st.Duplicates, st.Gaps, e.col.unknown)
}

// exportPath is one instance of the device-to-durable report path.
type exportPath struct {
	cfg    sampleandhold.Config
	dir    string
	traced bool
	fault  fault
	truth0 map[flow.Key]uint64
	meta   trace.Meta
	builds int

	sh    *sampleandhold.SampleAndHold
	alg   core.Algorithm
	spans *algSpans
	dev   *device.Device
	enc   *netflow.Exporter
	exp   *reliable.Exporter
	srv   *reliable.Server
	jrn   *reliable.Journal
	col   *collector
	p     *pass

	spoolSync, walSync syncSpans
	// spoolAt and walAt are the fsync counters at the window start.
	spoolAt, walAt [2]int64

	// State of the interval being closed.
	interval    int
	due         time.Time
	report      []core.Estimate
	availableAt time.Time
	lastRej     uint64
	encodeNs    int64
	enqueueNs   int64
	lateMs      []float64

	srvStats reliable.Stats
	expStats struct{ retries, dropped, backlogMax float64 }
}

// collector is the aggregation behind the server: it folds each applied
// frame into the report it belongs to and stamps when a report's last frame
// was applied.
type collector struct {
	mu      sync.Mutex
	reports []sentReport
	cursor  int
	seq     uint64
	unknown int

	traced                    bool
	decodeNs, applyNs, frames int64
}

// sentReport is one interval report as exported and as collected.
type sentReport struct {
	n         int // position in the pass
	timed     bool
	due       time.Time
	lastSeq   uint64
	frames    int
	wantBytes uint64
	wantRecs  int
	gotBytes  uint64
	gotRecs   int
	bad       bool
	done      bool
	appliedAt time.Time
}

// register records a report about to be enqueued; its frames take the next
// sequence numbers.
func (c *collector) register(r sentReport) {
	c.mu.Lock()
	c.seq += uint64(r.frames)
	r.lastSeq = c.seq
	if r.frames == 0 {
		r.done, r.appliedAt = true, time.Now()
	}
	c.reports = append(c.reports, r)
	c.mu.Unlock()
}

// handle is the server's handler: decode one v5 frame and aggregate it.
func (c *collector) handle(_, seq uint64, payload []byte) {
	t0 := time.Now()
	pkt, err := netflow.DecodeV5(payload)
	decoded := time.Since(t0)
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.cursor < len(c.reports) && c.reports[c.cursor].lastSeq < seq {
		c.cursor++
	}
	if c.cursor == len(c.reports) {
		c.unknown++
		return
	}
	r := &c.reports[c.cursor]
	if err != nil {
		r.bad = true
	} else {
		for _, rec := range pkt.Records {
			r.gotBytes += uint64(rec.Bytes)
			r.gotRecs++
		}
	}
	if seq == r.lastSeq {
		r.done, r.appliedAt = true, time.Now()
	}
	if c.traced && r.timed {
		c.decodeNs += int64(decoded)
		c.applyNs += int64(time.Since(t0))
		c.frames++
	}
}

func (c *collector) pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for i := range c.reports {
		if !c.reports[i].done {
			n++
		}
	}
	return n
}

// build opens the collector journal and server, the exporter with its
// spool, the algorithm and the device — everything up to the first packet.
// The exporter dials on its first frame, so the connection is set up by
// the warm-up cycle, not here.
func (e *exportPath) build() (teardown func(), err error) {
	dir := filepath.Join(e.dir, fmt.Sprintf("path-%d", e.builds))
	e.builds++
	var closers []func()
	teardown = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
		os.RemoveAll(dir)
	}
	defer func() {
		if err != nil {
			teardown()
		}
	}()
	jcfg := reliable.JournalConfig{Dir: filepath.Join(dir, "wal"), Fsync: reliable.FsyncPerBatch}
	ecfg := reliable.ExporterConfig{
		ExporterID: 1, SpoolDir: filepath.Join(dir, "spool"), Fsync: reliable.FsyncPerBatch,
		DrainTimeout: drainTimeout,
	}
	if e.traced {
		jcfg.Wrap = e.walSync.wrap
		ecfg.SpoolWrap = e.spoolSync.wrap
	}
	jrn, _, err := reliable.OpenJournal(jcfg, nil)
	if err != nil {
		return nil, err
	}
	closers = append(closers, func() { jrn.Close() })
	srv, addr, err := reliable.Listen("127.0.0.1:0", reliable.ServerConfig{Journal: jrn}, e.col.handle)
	if err != nil {
		return nil, err
	}
	closers = append(closers, func() { srv.Close() })
	ecfg.Addr = addr.String()
	exp, err := reliable.NewExporter(ecfg, nil)
	if err != nil {
		return nil, err
	}
	closers = append(closers, func() { exp.Close() })
	sh, err := sampleandhold.New(e.cfg)
	if err != nil {
		return nil, err
	}
	e.sh, e.alg, e.spans = sh, sh, nil
	if e.traced {
		e.spans = new(algSpans)
	}
	if e.traced || e.fault != noFault {
		if e.alg, err = probe(sh, e.spans, e.fault, e.truth0); err != nil {
			return nil, err
		}
	}
	e.dev = device.New(e.alg, flow.FiveTuple{}, nil)
	e.dev.KeepReports = false
	e.dev.OnReport = e.onReport
	e.enc = netflow.NewExporter(flow.FiveTuple{})
	e.jrn, e.srv, e.exp = jrn, srv, exp
	return teardown, nil
}

// onReport runs inside Device.EndInterval: the report is available, and
// the device's export sink encodes and spools it, as hhdevice's does.
func (e *exportPath) onReport(r device.IntervalReport) {
	e.availableAt = time.Now()
	e.report = r.Estimates
	uptime := time.Duration(e.interval+1) * e.meta.Interval
	pkts := e.enc.Export(r.Estimates, uptime)
	encoded := time.Now()
	sr := sentReport{n: e.interval, timed: e.p.win.timing, due: e.due, frames: len(pkts), wantRecs: len(r.Estimates)}
	for _, est := range r.Estimates {
		sr.wantBytes += min(est.Bytes, math.MaxUint32)
	}
	e.col.register(sr)
	e.exp.Enqueue(pkts)
	if e.traced && e.p.win.timing {
		e.encodeNs += int64(encoded.Sub(e.availableAt))
		e.enqueueNs += int64(time.Since(encoded))
	}
}

func (e *exportPath) counters() counters {
	return sumCounters([]core.Algorithm{e.alg}, []*algSpans{e.spans})
}

func (e *exportPath) run(in *inputs, ora *oracle, seconds float64, setups int) (*pass, error) {
	// Every build's server hands frames to this one collector; only the
	// last build carries traffic.
	e.col = &collector{traced: e.traced, reports: make([]sentReport, 0, harnessCap)}
	e.lateMs = make([]float64, 0, harnessCap)
	p := newPass(in, ora)
	e.p = p
	var err error
	teardown := func() {}
	if p.setupS, err = timeSetups(setups, func() (func(), error) {
		t, err := e.build()
		if err == nil {
			teardown = t
		}
		return t, err
	}); err != nil {
		return nil, err
	}
	defer func() { teardown() }()

	period := time.Second / cosReportsPerSecond
	timed := int(math.Round(seconds * cosReportsPerSecond))
	// The export path settles slower than the packet path (the connection,
	// the first spool and journal segments), so a timed run warms up for
	// several cycles.
	warm := in.intervals()
	if seconds > 0 {
		warm *= cosWarmupCycles
	}
	start := time.Now()
	for k := 0; k < warm+timed; k++ {
		if k == warm {
			p.begin(e.counters())
			e.spoolAt = [2]int64{e.spoolSync.ns.Load(), e.spoolSync.n.Load()}
			e.walAt = [2]int64{e.walSync.ns.Load(), e.walSync.n.Load()}
			p.batchNs, p.closeNs = 0, 0
			p.win.start()
		}
		pkts := in.interval(k % in.intervals())
		if p.win.timing {
			if k%in.intervals() == 0 {
				p.cycleStart()
			}
			p.pkts += int64(len(pkts))
		}
		for len(pkts) > 0 {
			n := min(feedBatch, len(pkts))
			if e.traced {
				t0 := time.Now()
				e.dev.PacketBatch(pkts[:n])
				p.batchNs += int64(time.Since(t0))
			} else {
				e.dev.PacketBatch(pkts[:n])
			}
			pkts = pkts[n:]
		}
		e.due = start.Add(time.Duration(k+1) * period)
		if d := time.Until(e.due); d > 0 {
			time.Sleep(d)
		}
		e.interval = k
		t0 := time.Now()
		e.dev.EndInterval(k)
		done := time.Since(t0)
		p.win.pause()
		if p.win.timing {
			e.lateMs = append(e.lateMs, float64(t0.Sub(e.due).Nanoseconds())/1e6)
			if e.traced {
				p.closeNs += int64(done)
			}
		}
		rej := e.sh.EntriesRejected()
		// Delivery is stamped by the collector and folded in by drain.
		p.closed(e.report, rej != e.lastRej, e.availableAt.Sub(t0))
		e.lastRej = rej
		p.win.resume()
		if p.win.timing && k%in.intervals() == in.intervals()-1 {
			p.cycleEnd()
		}
	}
	if p.win.timing {
		p.win.stop()
		p.end(e.counters())
	}
	return p, e.drain(p)
}

// drain waits for the collector to apply every report, then shuts the
// path down and folds delivery into the pass: delivery latencies of the
// timed reports, and lost or altered reports as oracle failures.
func (e *exportPath) drain(p *pass) error {
	deadline := time.Now().Add(drainTimeout)
	for e.col.pending() > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if err := e.exp.Close(); err != nil {
		p.ora.fail(len(p.digests)-1, "exporter close: %v", err)
	}
	ts := e.exp.Telemetry().Snapshot()
	e.expStats.retries = float64(ts.Redelivered + ts.Reconnects)
	e.expStats.dropped = float64(ts.FramesDropped)
	e.expStats.backlogMax = float64(ts.SpoolHighWater)
	e.srvStats = e.srv.Stats()
	if err := e.srv.Shutdown(time.Second); err != nil {
		return fmt.Errorf("collector shutdown: %w", err)
	}
	if err := e.jrn.Close(); err != nil {
		return fmt.Errorf("collector journal: %w", err)
	}

	e.col.mu.Lock()
	defer e.col.mu.Unlock()
	for _, r := range e.col.reports {
		ok := r.done && !r.bad && r.gotBytes == r.wantBytes && r.gotRecs == r.wantRecs
		if !ok {
			p.ora.fail(r.n, "collector got %d records / %d bytes (done %v), want %d / %d",
				r.gotRecs, r.gotBytes, r.done, r.wantRecs, r.wantBytes)
		}
		p.ora.mark(r.n, !ok)
		if r.timed && r.done {
			p.deliverMs = append(p.deliverMs, float64(r.appliedAt.Sub(r.due).Nanoseconds())/1e6)
		}
	}
	return nil
}

// layers computes the traced pass's per-layer metrics and reconciles the
// mean report delivery against its parts.
func (e *exportPath) layers(p, plain *pass, out *outcome) map[string]float64 {
	v := map[string]float64{}
	p.kernelLayers(v)
	n := float64(p.pkts)
	reports := float64(p.timedIntervals)
	var frames float64
	for _, r := range e.col.reports {
		if r.timed {
			frames += float64(r.frames)
		}
	}
	framesPerReport := ratio(frames, reports)
	walNs, walN := float64(e.walSync.ns.Load()-e.walAt[0]), float64(e.walSync.n.Load()-e.walAt[1])
	spoolNs, spoolN := float64(e.spoolSync.ns.Load()-e.spoolAt[0]), float64(e.spoolSync.n.Load()-e.spoolAt[1])

	v["flow.key_ns_per_pkt"] = keyProbe(p.in)
	v["device.batch_self_ns_per_pkt"] = ratio(float64(p.batchNs-p.kernel.batchNs), n)
	exportNs := float64(e.encodeNs + e.enqueueNs)
	v["device.end_interval_us"] = ratio(float64(p.closeNs)-exportNs, reports) / 1e3
	v["netflow.encode_us_per_report"] = ratio(float64(e.encodeNs), reports) / 1e3
	v["netflow.frames_per_report"] = framesPerReport
	v["netflow.decode_us_per_frame"] = ratio(float64(e.col.decodeNs), float64(e.col.frames)) / 1e3
	v["reliable.enqueue_us_per_report"] = ratio(float64(e.enqueueNs), reports) / 1e3
	v["reliable.spool_fsync_us"] = ratio(spoolNs, spoolN) / 1e3
	v["reliable.spool_fsyncs_per_report"] = ratio(spoolN, reports)
	v["reliable.delivery_p50_ms"] = quantile(p.deliverMs, 0.5)
	v["reliable.delivery_p90_ms"] = quantile(p.deliverMs, 0.9)
	v["reliable.wal_fsync_us"] = ratio(walNs, walN) / 1e3
	v["reliable.wal_fsyncs_per_report"] = ratio(walN, reports)
	v["reliable.apply_us_per_frame"] = ratio(float64(e.col.applyNs), float64(e.col.frames)) / 1e3
	v["reliable.backlog_max"] = e.expStats.backlogMax
	v["reliable.retries"] = e.expStats.retries
	v["reliable.dropped_frames"] = e.expStats.dropped
	v["reliable.duplicates"] = float64(e.srvStats.Duplicates)
	v["reliable.gaps"] = float64(e.srvStats.Gaps)
	v["loadgen.late_ms_p90"] = quantile(e.lateMs, 0.9)

	// Per report, delivery = lateness + EndInterval (close, encode,
	// spool) + the collector's WAL fsyncs and applies of its frames + the
	// wire and queueing remainder.
	delivery := mean(p.deliverMs)
	late := mean(e.lateMs)
	closeMs := ratio(float64(p.closeNs), reports) / 1e6
	walMs := ratio(walNs, reports) / 1e6
	applyMs := framesPerReport * v["reliable.apply_us_per_frame"] / 1e3
	remainder := delivery - late - closeMs - walMs - applyMs
	v["reliable.wire_remainder_ms"] = remainder
	v["ledger.unexplained_pct"] = 100 * ratio(remainder, delivery)
	v["ledger.trace_overhead_pct"] = 100 * (quantile(p.deliverMs, 0.5)/quantile(plain.deliverMs, 0.5) - 1)
	out.note("ledger: mean delivery %.3f ms = late %.3f + EndInterval (close+encode+spool) %.3f + WAL fsync %.3f + apply %.3f + wire remainder %.3f",
		delivery, late, closeMs, walMs, applyMs, remainder)
	out.note("ledger: the wire remainder overlaps the exporter's %.1f spool fsyncs per report (one per ack), which share the disk with the WAL",
		v["reliable.spool_fsyncs_per_report"])
	return v
}
