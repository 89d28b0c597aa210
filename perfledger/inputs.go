package main

import (
	"bytes"
	"fmt"

	"repro/internal/exact"
	"repro/internal/flow"
	"repro/internal/trace"
)

// feedBatch is the burst size the harness hands the program, the same as
// trace.Replay's default delivery batch.
const feedBatch = trace.DefaultBatchSize

// inputs is everything a workload feeds the program, generated from the
// seed before anything is timed. A run replays the cycle of intervals
// repeatedly, so a window of any length measures steady state on a fixed
// amount of generated traffic.
type inputs struct {
	meta trace.Meta
	pkts []flow.Packet
	// bounds[i] is the index of interval i's first packet; the last
	// element is len(pkts).
	bounds []int
	// encoded is the cycle in the compact trace format (file workloads).
	encoded []byte
	// truth[i] is the exact per-flow byte count of interval i.
	truth []map[flow.Key]uint64
}

// intervals returns the number of intervals in one cycle.
func (in *inputs) intervals() int { return len(in.truth) }

// interval returns the packets of interval i of the cycle.
func (in *inputs) interval(i int) []flow.Packet { return in.pkts[in.bounds[i]:in.bounds[i+1]] }

// makeInputs generates intervals of the named calibrated preset at scale,
// seeded by seed, and computes the exact per-interval truth with
// internal/exact. With encode set the packets are also written to the
// compact trace format, held in memory.
func makeInputs(preset string, scale float64, intervals int, seed int64, encode bool) (*inputs, error) {
	cfg, err := trace.Preset(preset)
	if err != nil {
		return nil, err
	}
	cfg = cfg.Scaled(scale).WithIntervals(intervals)
	cfg.Seed = seed
	gen, err := trace.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	src, err := trace.Collect(gen)
	if err != nil {
		return nil, err
	}
	in := &inputs{meta: src.Meta()}
	for {
		p, err := src.Next()
		if err != nil {
			break
		}
		in.pkts = append(in.pkts, p)
	}
	src.Reset()
	// Interval boundaries follow trace.Replay: packets past the nominal
	// end belong to the last interval.
	counters := make([]*exact.Counter, intervals)
	for i := range counters {
		counters[i] = exact.New(flow.FiveTuple{})
	}
	in.bounds = make([]int, 0, intervals+1)
	for i := range in.pkts {
		iv := int(in.pkts[i].Time / in.meta.Interval)
		if iv >= intervals {
			iv = intervals - 1
		}
		for len(in.bounds) <= iv {
			in.bounds = append(in.bounds, i)
		}
		counters[iv].Packet(&in.pkts[i])
	}
	for len(in.bounds) <= intervals {
		in.bounds = append(in.bounds, len(in.pkts))
	}
	for _, c := range counters {
		if c.Flows() == 0 {
			return nil, fmt.Errorf("%s: generated an empty interval", cfg.Name)
		}
		in.truth = append(in.truth, c.Snapshot())
	}
	if encode {
		var buf bytes.Buffer
		if _, err := trace.WriteAll(&buf, src); err != nil {
			return nil, fmt.Errorf("encoding %s: %w", cfg.Name, err)
		}
		in.encoded = buf.Bytes()
	}
	return in, nil
}
