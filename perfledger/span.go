package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/netflow/reliable"
)

// fullAlgorithm is every optional interface the engines look for on an
// algorithm. The paper's algorithms implement all of them, and so does the
// decorator below, so wrapping one never changes which code path an engine
// takes: the device still finds the batch kernel and the memory-pressure
// counter, the pipeline still compares KeyHash before forwarding hashes and
// still builds reports into its arenas.
type fullAlgorithm interface {
	core.HashBatchAlgorithm
	core.ReportAppender
	core.MemoryPressure
	core.Instrumented
}

// algSpans is one algorithm instance's kernel ledger. Each lane owns its
// instance, so the counters are plain fields: the pipeline's flush barrier
// (or Close) orders the lane's writes before the harness reads them.
type algSpans struct {
	batchNs, batches, pkts  int64
	reportNs, reports, ests int64
}

// fault is a deliberate defect the oracle's negative self-test injects.
type fault int

const (
	noFault fault = iota
	// dropBatch skips the third batch handed to the kernel.
	dropBatch
	// inflateEstimate sets the first estimate of the first report to one
	// byte more than its flow's true traffic in that interval. (Adding a
	// fixed amount is not enough: a lower-bound estimate may undercount
	// by more than any fixed amount.)
	inflateEstimate
)

func (f fault) String() string {
	switch f {
	case dropBatch:
		return "drop-batch"
	case inflateEstimate:
		return "inflate-estimate"
	}
	return "none"
}

// probedAlg decorates an algorithm with kernel spans (spans non-nil) or an
// injected fault. It embeds the full interface set, so every method it does
// not override is forwarded unchanged.
type probedAlg struct {
	fullAlgorithm
	spans *algSpans
	fault fault
	// truth0 is the exact per-flow bytes of the interval the first report
	// covers, which inflateEstimate exceeds.
	truth0  map[flow.Key]uint64
	batches int
	reports int
}

// probe wraps alg; truth0 is the exact truth of the first interval it
// reports (used by inflateEstimate only). It fails for an algorithm missing any optional
// interface, since the wrapper would then add a code path the bare
// algorithm does not have.
func probe(alg core.Algorithm, spans *algSpans, f fault, truth0 map[flow.Key]uint64) (core.Algorithm, error) {
	full, ok := alg.(fullAlgorithm)
	if !ok {
		return nil, fmt.Errorf("%s does not implement every engine interface; a wrapper would change its code path", alg.Name())
	}
	return &probedAlg{fullAlgorithm: full, spans: spans, fault: f, truth0: truth0}, nil
}

// dropped reports whether the fault swallows the current batch.
func (p *probedAlg) dropped() bool {
	p.batches++
	return p.fault == dropBatch && p.batches == 3
}

func (p *probedAlg) ProcessBatch(keys []flow.Key, sizes []uint32) {
	if p.dropped() {
		return
	}
	if p.spans == nil {
		p.fullAlgorithm.ProcessBatch(keys, sizes)
		return
	}
	t0 := time.Now()
	p.fullAlgorithm.ProcessBatch(keys, sizes)
	p.spans.batch(t0, len(keys))
}

func (p *probedAlg) ProcessBatchHash(hashes []uint64, keys []flow.Key, sizes []uint32) {
	if p.dropped() {
		return
	}
	if p.spans == nil {
		p.fullAlgorithm.ProcessBatchHash(hashes, keys, sizes)
		return
	}
	t0 := time.Now()
	p.fullAlgorithm.ProcessBatchHash(hashes, keys, sizes)
	p.spans.batch(t0, len(keys))
}

func (p *probedAlg) AppendEstimates(dst []core.Estimate) []core.Estimate {
	t0 := time.Now()
	base := len(dst)
	dst = p.fullAlgorithm.AppendEstimates(dst)
	p.report(t0, dst[base:])
	return dst
}

func (p *probedAlg) EndInterval() []core.Estimate {
	t0 := time.Now()
	ests := p.fullAlgorithm.EndInterval()
	p.report(t0, ests)
	return ests
}

func (p *probedAlg) report(t0 time.Time, ests []core.Estimate) {
	if p.spans != nil {
		p.spans.reportNs += int64(time.Since(t0))
		p.spans.reports++
		p.spans.ests += int64(len(ests))
	}
	p.reports++
	if p.fault == inflateEstimate && p.reports == 1 && len(ests) > 0 {
		ests[0].Bytes = p.truth0[ests[0].Key] + 1
	}
}

func (s *algSpans) batch(t0 time.Time, n int) {
	s.batchNs += int64(time.Since(t0))
	s.batches++
	s.pkts += int64(n)
}

// add accumulates o into s.
func (s *algSpans) add(o *algSpans) {
	s.batchNs += o.batchNs
	s.batches += o.batches
	s.pkts += o.pkts
	s.reportNs += o.reportNs
	s.reports += o.reports
	s.ests += o.ests
}

// syncSpans times the fsyncs of a journal's segment files; the exporter's
// sender and the collector's delivery goroutine both reach it.
type syncSpans struct {
	ns, n atomic.Int64
}

// wrap is a reliable.ExporterConfig.SpoolWrap / JournalConfig.Wrap seam.
func (s *syncSpans) wrap(f reliable.SpoolFile) reliable.SpoolFile { return timedFile{f, s} }

type timedFile struct {
	reliable.SpoolFile
	s *syncSpans
}

func (f timedFile) Sync() error {
	t0 := time.Now()
	err := f.SpoolFile.Sync()
	f.s.ns.Add(int64(time.Since(t0)))
	f.s.n.Add(1)
	return err
}

// window is the timed window's clock. The harness pauses it while it
// checks a report or samples the heap, so neither the oracle's time nor its
// allocations are charged to the program.
type window struct {
	started time.Time
	active  time.Duration
	// timing is set between start and stop; running is whether the clock
	// is ticking (timing and not paused).
	timing, running bool
	// harnessAllocs is the bytes allocated while the clock was paused.
	harnessAllocs uint64
	pausedAt      uint64
	samples       []metrics.Sample
	// liveBase is the live heap the harness itself holds (inputs, truth);
	// peakLive is the largest live heap seen at a GC inside the window.
	liveBase, peakLive uint64
	gcStart, gcEnd     uint64
	allocStart         uint64
	allocEnd           uint64
}

const (
	mAllocs = iota
	mLive
	mGCs
)

func newWindow() *window {
	return &window{samples: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}}
}

func (w *window) read() (allocs, live, gcs uint64) {
	metrics.Read(w.samples)
	return w.samples[mAllocs].Value.Uint64(), w.samples[mLive].Value.Uint64(), w.samples[mGCs].Value.Uint64()
}

// baseline records the harness's own live heap: call it after the inputs
// exist and before the program is built.
func (w *window) baseline() {
	runtime.GC()
	_, w.liveBase, _ = w.read()
}

// start begins the window after a collection, so the first live-heap
// sample is the program's settled footprint.
func (w *window) start() {
	runtime.GC()
	w.allocStart, w.peakLive, w.gcStart = w.read()
	w.started = time.Now()
	w.timing, w.running = true, true
}

func (w *window) pause() {
	if !w.running {
		return
	}
	w.active += time.Since(w.started)
	w.running = false
	w.pausedAt, _, _ = w.read()
}

func (w *window) resume() {
	if !w.timing {
		return
	}
	allocs, live, _ := w.read()
	w.harnessAllocs += allocs - w.pausedAt
	w.peakLive = max(w.peakLive, live)
	w.started = time.Now()
	w.running = true
}

func (w *window) stop() {
	w.pause()
	w.timing = false
	var live uint64
	w.allocEnd, live, w.gcEnd = w.read()
	w.peakLive = max(w.peakLive, live)
	w.allocEnd -= w.harnessAllocs
}

func (w *window) elapsed() time.Duration {
	if w.running {
		return w.active + time.Since(w.started)
	}
	return w.active
}

// programAllocs is the bytes the program allocated inside the window.
func (w *window) programAllocs() float64 { return float64(w.allocEnd - w.allocStart) }

// peakHeapMB is the program's peak live heap: the largest live heap seen at
// a collection inside the window, less what the harness holds.
func (w *window) peakHeapMB() float64 {
	if w.peakLive < w.liveBase {
		return 0
	}
	return float64(w.peakLive-w.liveBase) / (1 << 20)
}

// timeSetups builds the program n times and returns the median build time
// in seconds. build returns a teardown for its instance; every instance but
// the last is torn down (outside the timing) before the next is built.
func timeSetups(n int, build func() (teardown func(), err error)) (float64, error) {
	var ds []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		teardown, err := build()
		d := time.Since(t0).Seconds()
		if err != nil {
			return 0, err
		}
		ds = append(ds, d)
		if i < n-1 && teardown != nil {
			teardown()
		}
	}
	sort.Float64s(ds)
	return ds[len(ds)/2], nil
}

// probeNs times fn, which processes pkts packets, several times and
// returns the median nanoseconds per packet: the isolated per-packet cost
// of a layer too fine-grained for a span per packet.
func probeNs(reps, pkts int, fn func()) float64 {
	var ds []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		fn()
		ds = append(ds, float64(time.Since(t0).Nanoseconds())/float64(pkts))
	}
	return quantile(ds, 0.5)
}
