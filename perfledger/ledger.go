package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/memmodel"
)

// pass is one build-warm-measure cycle of a workload: the program is built
// (setups times, for the set-up metric), one cycle of intervals warms it,
// then the timed window runs whole intervals until its clock reaches the
// requested length.
type pass struct {
	in  *inputs
	ora *oracle
	win *window

	setupS float64
	// pkts counts the packets fed inside the timed window.
	pkts int64
	// closeUs is each timed interval's close latency: from the interval
	// boundary until the report is available. deliverMs is each timed
	// report's delivery latency on the export workload: from the close's
	// due time until the collector applied its last frame.
	closeUs, deliverMs []float64
	// digests holds every report of the pass in order, warm-up included.
	digests []uint64
	// timedIntervals and timedFlows count the timed intervals and their
	// distinct flows (the denominator of the filter pass ratio).
	timedIntervals, timedFlows int
	// cycleMpps is the packet rate of each timed cycle; the throughput is
	// their median, which a burst of interference on a shared host moves
	// less than the window's mean.
	cycleMpps []float64
	cycleAt   time.Duration
	cyclePkts int64

	// Program counters at the window's edges.
	memStart, memEnd       memmodel.Counter
	passesStart, passesEnd uint64
	rejStart, rejEnd       uint64
	// kernel sums the lanes' decorator spans over the window (traced).
	kernel algSpans
	// batchNs and closeNs are the spans around the calls the harness makes
	// into the program (traced): PacketBatch and EndInterval.
	batchNs, closeNs int64
}

// harnessCap preallocates the harness's per-report slices, so the harness
// adds no live heap inside the window and the peak-heap metric sees only
// the program.
const harnessCap = 1 << 15

// newPass prepares a pass; call it after any other harness state the pass
// needs exists, since it records the harness's live heap as the baseline.
func newPass(in *inputs, ora *oracle) *pass {
	p := &pass{
		in: in, ora: ora, win: newWindow(),
		closeUs:   make([]float64, 0, harnessCap),
		deliverMs: make([]float64, 0, harnessCap),
		digests:   make([]uint64, 0, harnessCap),
		cycleMpps: make([]float64, 0, harnessCap),
	}
	ora.failedAt = make([]bool, 0, harnessCap)
	p.win.baseline()
	return p
}

// closed records report n (clock paused by the caller): digest, oracle
// verdict and, inside the window, the close latency.
func (p *pass) closed(ests []core.Estimate, rejected bool, close time.Duration) {
	n := len(p.digests)
	p.digests = append(p.digests, digest(ests))
	p.ora.check(n, ests, rejected, p.win.timing)
	if p.win.timing {
		p.closeUs = append(p.closeUs, float64(close.Nanoseconds())/1e3)
		p.timedIntervals++
		p.timedFlows += len(p.in.truth[n%p.in.intervals()])
	}
}

// cycleStart and cycleEnd bracket one timed cycle of intervals.
func (p *pass) cycleStart() { p.cycleAt, p.cyclePkts = p.win.elapsed(), p.pkts }

func (p *pass) cycleEnd() {
	d := p.win.elapsed() - p.cycleAt
	p.cycleMpps = append(p.cycleMpps, ratio(float64(p.pkts-p.cyclePkts), d.Seconds())/1e6)
}

// counters is a snapshot of the program's cumulative counters.
type counters struct {
	mem      memmodel.Counter
	passes   uint64
	rejected uint64
	kernel   algSpans
}

// sumCounters totals the counters of the given lane algorithms (and their
// decorator spans, when traced). Call it only while the lanes are idle.
func sumCounters(algs []core.Algorithm, spans []*algSpans) counters {
	var c counters
	for i, a := range algs {
		c.mem.Add(*a.Mem())
		if in, ok := a.(core.Instrumented); ok {
			c.passes += in.Telemetry().Snapshot().FilterPasses
		}
		if mp, ok := a.(core.MemoryPressure); ok {
			c.rejected += mp.EntriesRejected()
		}
		if i < len(spans) && spans[i] != nil {
			c.kernel.add(spans[i])
		}
	}
	return c
}

func (p *pass) begin(c counters) {
	p.memStart, p.passesStart, p.rejStart = c.mem, c.passes, c.rejected
	p.kernel = algSpans{}
	p.kernel.sub(&c.kernel)
}

func (p *pass) end(c counters) {
	p.memEnd, p.passesEnd, p.rejEnd = c.mem, c.passes, c.rejected
	p.kernel.add(&c.kernel)
}

// sub subtracts o from s.
func (s *algSpans) sub(o *algSpans) {
	s.batchNs -= o.batchNs
	s.batches -= o.batches
	s.pkts -= o.pkts
	s.reportNs -= o.reportNs
	s.reports -= o.reports
	s.ests -= o.ests
}

func (p *pass) wallNs() float64 { return float64(p.win.active.Nanoseconds()) }

// nsPerPkt is the window's wall time per packet.
func (p *pass) nsPerPkt() float64 { return ratio(p.wallNs(), float64(p.pkts)) }

func (p *pass) memRefs() (sram, dram float64) {
	s := float64(p.memEnd.SRAMReads + p.memEnd.SRAMWrites - p.memStart.SRAMReads - p.memStart.SRAMWrites)
	d := float64(p.memEnd.DRAMReads + p.memEnd.DRAMWrites - p.memStart.DRAMReads - p.memStart.DRAMWrites)
	n := float64(p.memEnd.Packets - p.memStart.Packets)
	return ratio(s, n), ratio(d, n)
}

// endToEnd fills the end-to-end metrics every workload reports.
func (p *pass) endToEnd(m *metricSet) {
	sram, dram := p.memRefs()
	m.add("throughput_mpps", quantile(p.cycleMpps, 0.5), "Mpps")
	m.add("interval_close_p50_us", quantile(p.closeUs, 0.5), "us")
	m.add("interval_close_p90_us", quantile(p.closeUs, 0.9), "us")
	m.add("mem_refs_per_pkt", sram+dram, "refs/pkt")
	m.add("setup_s", p.setupS, "s")
	m.add("peak_heap_mb", p.win.peakHeapMB(), "MB")
	m.add("alloc_bytes_per_pkt", ratio(p.win.programAllocs(), float64(p.pkts)), "B/pkt")
}

// layerUnits lists every per-layer metric of the traced run with its unit,
// in report order. A layer absent from a workload's path reads 0.
var layerUnits = []struct{ name, unit string }{
	{"trace.decode_ns_per_pkt", "ns/pkt"},
	{"flow.key_ns_per_pkt", "ns/pkt"},
	{"device.batch_self_ns_per_pkt", "ns/pkt"},
	{"device.end_interval_us", "us"},
	{"kernel.ns_per_pkt", "ns/pkt"},
	{"kernel.pkts_per_batch", "pkts"},
	{"kernel.report_us", "us"},
	{"kernel.estimates_per_report", "count"},
	{"kernel.entries_rejected", "count"},
	{"kernel.filter_pass_ratio", "ratio"},
	{"memmodel.sram_refs_per_pkt", "refs/pkt"},
	{"memmodel.dram_refs_per_pkt", "refs/pkt"},
	{"flowmem.hash_ns_per_pkt", "ns/pkt"},
	{"stagegraph.producer_ns_per_pkt", "ns/pkt"},
	{"stagegraph.producer_busy_frac", "ratio"},
	{"stagegraph.lane_busy_frac", "ratio"},
	{"stagegraph.lane_imbalance", "ratio"},
	{"stagegraph.end_interval_us", "us"},
	{"spsc.handoffs", "1/kpkt"},
	{"spsc.queue_hwm", "batches"},
	{"spsc.flush_stalls", "1/kpkt"},
	{"netflow.encode_us_per_report", "us"},
	{"netflow.frames_per_report", "count"},
	{"netflow.decode_us_per_frame", "us"},
	{"reliable.delivery_p50_ms", "ms"},
	{"reliable.delivery_p90_ms", "ms"},
	{"reliable.enqueue_us_per_report", "us"},
	{"reliable.spool_fsync_us", "us"},
	{"reliable.spool_fsyncs_per_report", "count"},
	{"reliable.wal_fsync_us", "us"},
	{"reliable.wal_fsyncs_per_report", "count"},
	{"reliable.apply_us_per_frame", "us"},
	{"reliable.backlog_max", "frames"},
	{"reliable.wire_remainder_ms", "ms"},
	{"reliable.retries", "count"},
	{"reliable.dropped_frames", "count"},
	{"reliable.duplicates", "count"},
	{"reliable.gaps", "count"},
	{"loadgen.late_ms_p90", "ms"},
	{"runtime.gc_cycles", "count"},
	{"oracle.large_flow_err_pct", "%"},
	{"oracle.error_ratio", "ratio"},
	{"ledger.unexplained_pct", "%"},
	{"ledger.trace_overhead_pct", "%"},
}

// layerMetrics turns measured per-layer values into the traced run's
// metric set; every layer appears, absent ones as 0.
func layerMetrics(vals map[string]float64) (metricSet, error) {
	var m metricSet
	for _, l := range layerUnits {
		m.add(l.name, vals[l.name], l.unit)
		delete(vals, l.name)
	}
	for name := range vals {
		return m, fmt.Errorf("per-layer metric %s is not in the layer list", name)
	}
	return m, nil
}

// kernelLayers adds the kernel and memory-model layers measured over p's
// window.
func (p *pass) kernelLayers(v map[string]float64) {
	k := p.kernel
	v["kernel.ns_per_pkt"] = ratio(float64(k.batchNs), float64(k.pkts))
	v["kernel.pkts_per_batch"] = ratio(float64(k.pkts), float64(k.batches))
	v["kernel.report_us"] = ratio(float64(k.reportNs), float64(k.reports)) / 1e3
	v["kernel.estimates_per_report"] = ratio(float64(k.ests), float64(p.timedIntervals))
	v["kernel.entries_rejected"] = float64(p.rejEnd - p.rejStart)
	v["kernel.filter_pass_ratio"] = ratio(float64(p.passesEnd-p.passesStart), float64(p.timedFlows))
	v["memmodel.sram_refs_per_pkt"], v["memmodel.dram_refs_per_pkt"] = p.memRefs()
	v["runtime.gc_cycles"] = float64(p.win.gcEnd - p.win.gcStart)
}

// verdict folds the oracles' tallies (one per pass of the run) and the
// negative self-test into the outcome. error_ratio — failed reports over
// reports attempted — is what attempted and failed carry; the large-flow
// error is the first oracle's, over its timed reports.
func (o *outcome) verdict(selftestOK bool, oras ...*oracle) {
	for _, ora := range oras {
		a, f := ora.tally()
		o.attempted += a
		o.failed += f
		if ora.first != "" {
			o.note("oracle: first failure: %s", ora.first)
		}
	}
	o.correct = o.correct && o.failed == 0 && selftestOK
	errorRatio := ratio(float64(o.failed), float64(o.attempted))
	largeErr := oras[0].largeFlowErrPct()
	o.note("accuracy: error_ratio %.4g (%d of %d reports failed), large_flow_err_pct %.4g %% of T=%d bytes",
		errorRatio, o.failed, o.attempted, largeErr, oras[0].T)
	if _, traced := o.metrics.vals["oracle.error_ratio"]; traced {
		o.metrics.add("oracle.error_ratio", errorRatio, "ratio")
		o.metrics.add("oracle.large_flow_err_pct", largeErr, "%")
	}
}

// compareTraced checks that the traced pass produced exactly the reports
// of the untraced pass on their common prefix.
func (o *outcome) compareTraced(plain, traced *pass) {
	same, n := sameDigests(plain.digests, traced.digests)
	if !same {
		o.correct = false
	}
	o.note("digest: traced and untraced passes agree on %d common reports: %v", n, same)
}

// selftest runs the oracle's negative self-test: each faulty pass must
// produce at least one failed report.
func (o *outcome) selftest(faults []fault, run func(f fault) (*oracle, error)) (bool, error) {
	ok := true
	for _, f := range faults {
		ora, err := run(f)
		if err != nil {
			return false, fmt.Errorf("self-test %s: %w", f, err)
		}
		attempted, failed := ora.tally()
		caught := failed > 0
		ok = ok && caught
		o.note("self-test: fault %s → error_ratio %.4g (%d/%d reports), caught: %v",
			f, ratio(float64(failed), float64(attempted)), failed, attempted, caught)
	}
	return ok, nil
}

// oracles returns the passes' oracles, in order.
func oracles(passes []*pass) []*oracle {
	var oras []*oracle
	for _, p := range passes {
		oras = append(oras, p.ora)
	}
	return oras
}

// Set-up repetitions of an untraced run: the program is built this many
// times and the median build time reported. A device builds in
// microseconds, so it repeats most; a pipeline build allocates 64 MiB of
// lane counters.
const (
	setupsDevice  = 21
	setupsSharded = 7
	setupsExport  = 15
)
