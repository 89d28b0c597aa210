package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/core/device"
	"repro/internal/core/multistage"
	"repro/internal/flow"
	"repro/internal/trace"
)

// magScale and magCycle size the MAG workloads: MAG calibration at x0.25
// (about 25k flows and 160k packets per interval), eight intervals per
// cycle.
const (
	magScale = 0.25
	magCycle = 8
)

// hhdeviceThreshold is hhdevice's default large-flow threshold, as a
// fraction of link capacity.
const hhdeviceThreshold = 0.001

// runFileDevice is mag-file-device: exactly `hhdevice -alg msf <trace>` on
// a host whose auto-shard picks one lane. The compact trace is decoded by
// trace.Reader into a synchronous Device running hhdevice's default
// multistage filter; closed loop.
func runFileDevice(o options) (*outcome, error) {
	in, err := makeInputs("MAG", magScale, magCycle, o.seed, true)
	if err != nil {
		return nil, err
	}
	T := uint64(hhdeviceThreshold * in.meta.Capacity())
	cfg := multistage.Config{
		Stages: 4, Buckets: 1024, Entries: 1024, Threshold: T,
		Conservative: true, Shield: true, Preserve: true, Seed: 1,
	}
	out := &outcome{correct: true, config: fmt.Sprintf("mag-file-device MAG x%g cycle %d 5-tuple %+v", magScale, magCycle, cfg)}
	// A parallel filter has no false negatives: every flow reaching T must
	// be reported.
	newOra := func() *oracle { return newOracle(in, T, T) }
	run := func(traced bool, seconds float64, setups int, f fault) (*pass, *fileDevice, error) {
		d := &fileDevice{cfg: cfg, traced: traced, fault: f, truth0: in.truth[0]}
		p, err := d.run(in, newOra(), seconds, setups)
		return p, d, err
	}

	// passes are the run's passes: the measured one, plus in a traced run
	// the untraced pass it is compared against.
	var passes []*pass
	if !o.traced {
		p, _, err := run(false, o.seconds, setupsDevice, noFault)
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
		tp, d, err := run(true, o.seconds/2, 1, noFault)
		if err != nil {
			return nil, err
		}
		out.compareTraced(plain, tp)
		v, err := d.layers(tp, plain, out)
		if err != nil {
			return nil, err
		}
		if out.metrics, err = layerMetrics(v); err != nil {
			return nil, err
		}
		passes = []*pass{tp, plain}
	}
	longest := 0
	for _, p := range passes {
		longest = max(longest, len(p.digests))
	}
	ref, err := deviceReference(in, cfg, longest)
	if err != nil {
		return nil, err
	}
	for _, p := range passes {
		p.ora.matchReference(p.digests, ref)
	}

	ok, err := out.selftest([]fault{dropBatch, inflateEstimate}, func(f fault) (*oracle, error) {
		p, _, err := run(false, 0, 1, f)
		if err != nil {
			return nil, err
		}
		p.ora.matchReference(p.digests, ref)
		return p.ora, nil
	})
	if err != nil {
		return nil, err
	}
	out.verdict(ok, oracles(passes)...)
	return out, nil
}

// fileDevice is one instance of the file-replay device under test.
type fileDevice struct {
	cfg    multistage.Config
	traced bool
	fault  fault
	truth0 map[flow.Key]uint64

	filter *multistage.Filter
	alg    core.Algorithm
	spans  *algSpans
	dev    *device.Device
	p      *pass

	// Replay-consumer state for the interval being closed.
	report      []core.Estimate
	availableAt time.Time
	lastRej     uint64
}

// build constructs the algorithm and the device, ready for the first
// packet.
func (d *fileDevice) build() (func(), error) {
	f, err := multistage.New(d.cfg)
	if err != nil {
		return nil, err
	}
	d.filter, d.alg, d.spans = f, f, nil
	if d.traced {
		d.spans = new(algSpans)
	}
	if d.traced || d.fault != noFault {
		if d.alg, err = probe(f, d.spans, d.fault, d.truth0); err != nil {
			return nil, err
		}
	}
	d.dev = device.New(d.alg, flow.FiveTuple{}, nil)
	d.dev.KeepReports = false
	d.dev.OnReport = func(r device.IntervalReport) {
		d.availableAt = time.Now()
		d.report = r.Estimates
	}
	return nil, nil
}

func (d *fileDevice) counters() counters {
	return sumCounters([]core.Algorithm{d.alg}, []*algSpans{d.spans})
}

// run builds the device, replays one warm-up cycle, then replays whole
// cycles until the window reaches seconds.
func (d *fileDevice) run(in *inputs, ora *oracle, seconds float64, setups int) (*pass, error) {
	p := newPass(in, ora)
	d.p = p
	var err error
	if p.setupS, err = timeSetups(setups, d.build); err != nil {
		return nil, err
	}
	if err := d.cycle(in); err != nil {
		return nil, err
	}
	if seconds <= 0 {
		return p, nil
	}
	p.begin(d.counters())
	p.batchNs, p.closeNs = 0, 0
	p.win.start()
	for p.win.elapsed().Seconds() < seconds {
		p.cycleStart()
		if err := d.cycle(in); err != nil {
			return nil, err
		}
		p.cycleEnd()
	}
	p.win.stop()
	p.end(d.counters())
	return p, nil
}

// cycle decodes the encoded cycle with a fresh trace.Reader and replays it
// into the device.
func (d *fileDevice) cycle(in *inputs) error {
	r, err := trace.NewReader(bytes.NewReader(in.encoded))
	if err != nil {
		return err
	}
	n, err := trace.Replay(r, d)
	if d.p.win.timing {
		d.p.pkts += int64(n)
	}
	return err
}

// Packet implements trace.Consumer; Replay always takes the batch path.
func (d *fileDevice) Packet(pkt *flow.Packet) { d.dev.Packet(pkt) }

// PacketBatch implements trace.BatchConsumer.
func (d *fileDevice) PacketBatch(pkts []flow.Packet) {
	if !d.traced {
		d.dev.PacketBatch(pkts)
		return
	}
	t0 := time.Now()
	d.dev.PacketBatch(pkts)
	d.p.batchNs += int64(time.Since(t0))
}

// EndInterval implements trace.Consumer: it closes the device's interval,
// then (clock paused) hands the report to the oracle.
func (d *fileDevice) EndInterval(iv int) {
	t0 := time.Now()
	d.dev.EndInterval(iv)
	done := time.Since(t0)
	d.p.win.pause()
	if d.traced && d.p.win.timing {
		d.p.closeNs += int64(done)
	}
	rej := d.filter.EntriesRejected()
	d.p.closed(d.report, rej != d.lastRej, d.availableAt.Sub(t0))
	d.lastRej = rej
	d.p.win.resume()
}

// layers computes the traced pass's per-layer metrics and ledger. plain is
// the untraced pass of the same run, the base of the tracing overhead.
func (d *fileDevice) layers(p, plain *pass, out *outcome) (map[string]float64, error) {
	in := p.in
	v := map[string]float64{}
	p.kernelLayers(v)
	n := float64(p.pkts)
	var decodeErr error
	decode := probeNs(5, len(in.pkts), func() {
		r, err := trace.NewReader(bytes.NewReader(in.encoded))
		for err == nil {
			_, err = r.Next()
		}
		if err != io.EOF {
			decodeErr = err
		}
	})
	if decodeErr != nil {
		return nil, fmt.Errorf("decode probe: %w", decodeErr)
	}
	v["trace.decode_ns_per_pkt"] = decode
	v["flow.key_ns_per_pkt"] = keyProbe(in)
	v["device.batch_self_ns_per_pkt"] = ratio(float64(p.batchNs-p.kernel.batchNs), n)
	v["device.end_interval_us"] = ratio(float64(p.closeNs), float64(p.timedIntervals)) / 1e3
	wall := p.wallNs()
	explained := decode*n + float64(p.batchNs+p.closeNs)
	v["ledger.unexplained_pct"] = 100 * (wall - explained) / wall
	v["ledger.trace_overhead_pct"] = 100 * (p.nsPerPkt()/plain.nsPerPkt() - 1)
	out.note("ledger: wall %.1f ns/pkt = decode probe %.1f + PacketBatch %.1f (kernel %.1f, key %.1f, device self rest) + EndInterval %.1f + remainder %.1f",
		wall/n, decode, float64(p.batchNs)/n, v["kernel.ns_per_pkt"], v["flow.key_ns_per_pkt"], float64(p.closeNs)/n,
		(wall-explained)/n)
	return v, nil
}

// keySink keeps the key probe's result live.
var keySink flow.Key

// keyProbe is the isolated per-packet cost of 5-tuple key extraction over
// the workload's packets.
func keyProbe(in *inputs) float64 {
	return probeNs(5, len(in.pkts), func() {
		var acc flow.Key
		def := flow.FiveTuple{}
		for i := range in.pkts {
			k := def.Key(&in.pkts[i])
			acc.Hi ^= k.Hi
			acc.Lo ^= k.Lo
		}
		keySink = acc
	})
}

// deviceReference replays intervals intervals of the cycle one packet at a
// time through Device.Packet — the per-packet Process path — and returns
// each report's digest.
func deviceReference(in *inputs, cfg multistage.Config, intervals int) ([]uint64, error) {
	f, err := multistage.New(cfg)
	if err != nil {
		return nil, err
	}
	dev := device.New(f, flow.FiveTuple{}, nil)
	dev.KeepReports = false
	ds := make([]uint64, 0, intervals)
	dev.OnReport = func(r device.IntervalReport) { ds = append(ds, digest(r.Estimates)) }
	for n := 0; n < intervals; n++ {
		pkts := in.interval(n % in.intervals())
		for i := range pkts {
			dev.Packet(&pkts[i])
		}
		dev.EndInterval(n)
	}
	return ds, nil
}
