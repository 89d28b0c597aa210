package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/core/flowmem"
	"repro/internal/core/multistage"
	"repro/internal/flow"
	"repro/internal/memmodel"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
)

// mag-sharded-dram runs MAG at full calibration (about 100k flows and 650k
// packets per interval), four intervals per cycle, on two lanes. At the
// file device's x0.25 an interval holds little more than the lane rings
// (2 x 1024 batches of 64), so how much backlog an interval close drains is
// decided by which of three goroutines the two Ps happen to run, and the
// close latency's median moved by a third between runs; at x1 the heavy
// lane's ring is full at every close.
const (
	shardedScale  = 1.0
	shardedCycle  = 4
	shardedShards = 2
)

// runShardedDRAM is mag-sharded-dram: the MAG packets, pre-decoded in
// memory, fed in 256-packet bursts to a 2-shard Pipeline with hhdevice's
// sharded settings. Each lane runs a doublehash filter sized past L2 (4 x
// 2^20 counters, 2^15 entries at T/16), so the kernels are DRAM-bound;
// closed loop.
func runShardedDRAM(o options) (*outcome, error) {
	in, err := makeInputs("MAG", shardedScale, shardedCycle, o.seed, false)
	if err != nil {
		return nil, err
	}
	T := uint64(hhdeviceThreshold * in.meta.Capacity())
	laneT := T / 16
	lane := func(shard int) multistage.Config {
		return multistage.Config{
			Stages: 4, Buckets: 1 << 20, Entries: 1 << 15, Threshold: laneT,
			Conservative: true, Shield: true, Preserve: true, Hash: "doublehash",
			Seed: int64(shard) + 1,
		}
	}
	out := &outcome{correct: true, config: fmt.Sprintf("mag-sharded-dram MAG x%g cycle %d 5-tuple shards %d queue 1024 block lane %+v",
		shardedScale, shardedCycle, shardedShards, lane(0))}
	// Each lane is a parallel filter at T/16: every flow reaching T/16
	// lands in its lane's report. The large-flow error is measured against
	// the same configured threshold.
	newOra := func() *oracle { return newOracle(in, laneT, laneT) }
	run := func(traced bool, seconds float64, setups int, f fault) (*pass, *sharded, error) {
		s := &sharded{lane: lane, traced: traced, fault: f, truth0: in.truth[0]}
		p, err := s.run(in, newOra(), seconds, setups)
		return p, s, err
	}

	var passes []*pass
	if !o.traced {
		p, _, err := run(false, o.seconds, setupsSharded, noFault)
		if err != nil {
			return nil, err
		}
		p.endToEnd(&out.metrics)
		passes = []*pass{p}
	} else {
		plain, _, err := run(false, o.seconds/2, 1, noFault)
		if err != nil {
			return nil, err
		}
		tp, s, err := run(true, o.seconds/2, 1, noFault)
		if err != nil {
			return nil, err
		}
		out.compareTraced(plain, tp)
		v, err := s.layers(tp, plain, out)
		if err != nil {
			return nil, err
		}
		if out.metrics, err = layerMetrics(v); err != nil {
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

// sharded is one instance of the sharded pipeline under test.
type sharded struct {
	lane   func(shard int) multistage.Config
	traced bool
	fault  fault
	truth0 map[flow.Key]uint64

	pipe  *pipeline.Pipeline
	algs  []core.Algorithm
	spans []*algSpans
	p     *pass

	lastRej  uint64
	interval int
	// laneStart is the lanes' producer-side telemetry at the window start.
	laneStart []telemetry.LaneSnapshot
}

// build starts a pipeline (its lanes allocate their filters), ready for the
// first packet; the teardown closes it.
func (s *sharded) build() (func(), error) {
	s.algs = make([]core.Algorithm, shardedShards)
	s.spans = make([]*algSpans, shardedShards)
	pipe, err := pipeline.New(pipeline.Config{
		Shards:     shardedShards,
		QueueDepth: 1024,
		Overload:   pipeline.Block,
		NewAlgorithm: func(shard int) (core.Algorithm, error) {
			f, err := multistage.New(s.lane(shard))
			if err != nil {
				return nil, err
			}
			s.algs[shard] = f
			if !s.traced && s.fault == noFault {
				return f, nil
			}
			if s.traced {
				s.spans[shard] = new(algSpans)
			}
			return probe(f, s.spans[shard], s.fault, s.truth0)
		},
		Definition: flow.FiveTuple{},
	})
	if err != nil {
		return nil, err
	}
	s.pipe = pipe
	return pipe.Close, nil
}

// counters reads the lanes' counters; only valid right after an
// EndInterval, when every lane has drained and answered the flush.
func (s *sharded) counters() counters { return sumCounters(s.algs, s.spans) }

func (s *sharded) run(in *inputs, ora *oracle, seconds float64, setups int) (*pass, error) {
	p := newPass(in, ora)
	s.p = p
	var err error
	if p.setupS, err = timeSetups(setups, s.build); err != nil {
		return nil, err
	}
	defer s.pipe.Close()
	for i := 0; i < in.intervals(); i++ {
		s.feed(in, i)
	}
	if seconds <= 0 {
		return p, nil
	}
	p.begin(s.counters())
	s.laneStart = s.pipe.Stats().Lanes
	p.batchNs, p.closeNs = 0, 0
	p.win.start()
	for p.win.elapsed().Seconds() < seconds {
		p.cycleStart()
		for i := 0; i < in.intervals(); i++ {
			p.pkts += int64(len(in.interval(i)))
			s.feed(in, i)
		}
		p.cycleEnd()
	}
	p.win.stop()
	p.end(s.counters())
	return p, nil
}

// feed hands interval i of the cycle to the pipeline in bursts and closes
// the interval; then (clock paused) the oracle checks the merged report.
func (s *sharded) feed(in *inputs, i int) {
	pkts := in.interval(i)
	for len(pkts) > 0 {
		n := min(feedBatch, len(pkts))
		if s.traced {
			t0 := time.Now()
			s.pipe.PacketBatch(pkts[:n])
			s.p.batchNs += int64(time.Since(t0))
		} else {
			s.pipe.PacketBatch(pkts[:n])
		}
		pkts = pkts[n:]
	}
	t0 := time.Now()
	s.pipe.EndInterval(s.interval)
	done := time.Since(t0)
	s.interval++
	s.p.win.pause()
	if s.traced && s.p.win.timing {
		s.p.closeNs += int64(done)
	}
	reports := s.pipe.Reports()
	r := &reports[len(reports)-1]
	rej := s.counters().rejected
	s.p.closed(r.Estimates, rej != s.lastRej, done)
	s.lastRej = rej
	// The harness owns delivered reports: dropping the estimates keeps a
	// long run's heap flat while the pipeline retains the report headers.
	r.Estimates = nil
	s.p.win.resume()
}

// layers computes the traced pass's per-layer metrics and the producer /
// lane ledger.
func (s *sharded) layers(p, plain *pass, out *outcome) (map[string]float64, error) {
	in := p.in
	v := map[string]float64{}
	p.kernelLayers(v)
	n := float64(p.pkts)
	wall := p.wallNs()

	v["flow.key_ns_per_pkt"] = keyProbe(in)
	v["flowmem.hash_ns_per_pkt"] = hashProbe(in)
	producer, err := producerProbe(in, s.lane)
	if err != nil {
		return nil, err
	}
	v["stagegraph.producer_ns_per_pkt"] = producer
	v["stagegraph.producer_busy_frac"] = producer * n / wall
	// The lanes' decorator spans, summed over lanes and limited to the
	// window, are their busy time.
	laneBusy := float64(p.kernel.batchNs+p.kernel.reportNs) / float64(shardedShards) / wall
	v["stagegraph.lane_busy_frac"] = laneBusy
	lanes := s.pipe.Stats().Lanes
	var maxPkts, sumPkts float64
	var handoffs, stalls, hwm uint64
	for i, l := range lanes {
		d := float64(l.Packets - s.laneStart[i].Packets)
		maxPkts = max(maxPkts, d)
		sumPkts += d
		handoffs += l.Batches - s.laneStart[i].Batches
		stalls += l.FlushStalls - s.laneStart[i].FlushStalls
		hwm = max(hwm, l.QueueHighWater)
	}
	v["stagegraph.lane_imbalance"] = ratio(maxPkts, sumPkts/float64(len(lanes)))
	v["stagegraph.end_interval_us"] = ratio(float64(p.closeNs), float64(p.timedIntervals)) / 1e3
	v["spsc.handoffs"] = 1000 * float64(handoffs) / n
	v["spsc.queue_hwm"] = float64(hwm)
	v["spsc.flush_stalls"] = 1000 * float64(stalls) / n
	explained := float64(p.batchNs + p.closeNs)
	v["ledger.unexplained_pct"] = 100 * (wall - explained) / wall
	v["ledger.trace_overhead_pct"] = 100 * (p.nsPerPkt()/plain.nsPerPkt() - 1)

	out.note("ledger: producer timeline: PacketBatch %.1f%% + EndInterval %.1f%% of wall, remainder %.1f%%",
		100*float64(p.batchNs)/wall, 100*float64(p.closeNs)/wall, v["ledger.unexplained_pct"])
	out.note("ledger: CPU demand on %d lanes: producer %.2f + lanes %d x %.2f = %.2f cores (GOMAXPROCS-bound when near the core count)",
		len(lanes), v["stagegraph.producer_busy_frac"], len(lanes), laneBusy,
		v["stagegraph.producer_busy_frac"]+float64(len(lanes))*laneBusy)
	return v, nil
}

// hashSink keeps the hash probe's result live.
var hashSink uint64

// hashProbe is the isolated per-packet cost of flowmem.Hash, the
// producer's shard-selection hash, over the workload's keys.
func hashProbe(in *inputs) float64 {
	def := flow.FiveTuple{}
	keys := make([]flow.Key, len(in.pkts))
	for i := range in.pkts {
		keys[i] = def.Key(&in.pkts[i])
	}
	return probeNs(5, len(keys), func() {
		var acc uint64
		for _, k := range keys {
			acc ^= flowmem.Hash(k)
		}
		hashSink = acc
	})
}

// producerProbe is the producer's isolated per-packet cost: one cycle fed
// to the same 2-shard pipeline whose lanes run a no-op algorithm, so the
// producer (key, hash, partition, handoff) never waits on a kernel. The
// no-op algorithm, like the doublehash filter, does not take forwarded
// hashes, so the producer runs the same code path.
func producerProbe(in *inputs, lane func(int) multistage.Config) (float64, error) {
	pipe, err := pipeline.New(pipeline.Config{
		Shards:       shardedShards,
		QueueDepth:   1024,
		Overload:     pipeline.Block,
		NewAlgorithm: func(int) (core.Algorithm, error) { return &nopAlg{}, nil },
		Definition:   flow.FiveTuple{},
	})
	if err != nil {
		return 0, err
	}
	defer pipe.Close()
	interval := 0
	ns := probeNs(5, len(in.pkts), func() {
		for i := 0; i < in.intervals(); i++ {
			pkts := in.interval(i)
			for len(pkts) > 0 {
				n := min(feedBatch, len(pkts))
				pipe.PacketBatch(pkts[:n])
				pkts = pkts[n:]
			}
			pipe.EndInterval(interval)
			interval++
		}
	})
	return ns, nil
}

// nopAlg is a batch algorithm that does nothing: lanes running it cost the
// producer only the handoff.
type nopAlg struct{ mem memmodel.Counter }

func (*nopAlg) Name() string                      { return "nop" }
func (*nopAlg) Process(flow.Key, uint32)          {}
func (*nopAlg) ProcessBatch([]flow.Key, []uint32) {}
func (*nopAlg) EndInterval() []core.Estimate      { return nil }
func (*nopAlg) EntriesUsed() int                  { return 0 }
func (*nopAlg) Capacity() int                     { return 1 }
func (*nopAlg) Threshold() uint64                 { return 1 }
func (*nopAlg) SetThreshold(uint64)               {}
func (a *nopAlg) Mem() *memmodel.Counter          { return &a.mem }
