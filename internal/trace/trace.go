// Package trace provides the traffic substrate for the reproduction: the
// trace model (packets grouped into measurement intervals on a link of known
// capacity), a replay engine, a compact binary on-disk format, and a
// synthetic trace generator calibrated to the paper's traces.
//
// The paper evaluates on three real traces (Table 3): MAG+, a 4515 s OC-48
// CAIDA trace (MAG is its first 90 s), and IND/COS, 90 s NLANR traces from an
// OC-12 and an OC-3 access link. Those traces are not redistributable, so
// the generator in this package synthesizes traffic matched to their
// published statistics: active flow counts under each flow definition,
// megabytes per 5-second interval, link utilization (13-27 %), the heavy
// tail of Figure 6 (the top 10 % of flows carry 85-94 % of the bytes), and
// the prevalence of long-lived large flows that the paper's
// entry-preservation optimization exploits.
package trace

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/cfgerr"
	"repro/internal/flow"
)

// Meta describes a trace: the link it was captured on and its measurement
// interval structure. The measurement interval (5 seconds in all the paper's
// experiments) partitions the trace; all algorithm state except preserved
// entries resets at interval boundaries.
type Meta struct {
	// Name identifies the trace ("MAG+", "MAG", "IND", "COS", or custom).
	Name string
	// LinkBytesPerSec is the capacity of the measured link in bytes/second.
	LinkBytesPerSec float64
	// Interval is the measurement interval length.
	Interval time.Duration
	// Intervals is the number of measurement intervals in the trace.
	Intervals int
	// HasAS reports whether packets carry AS annotations (the paper could
	// not do AS-pair analysis on its anonymized IND/COS traces).
	HasAS bool
}

// Capacity returns C, the number of bytes the link can carry in one
// measurement interval — the quantity the paper's thresholds are expressed
// against (e.g. "flows above 0.1% of the link capacity").
func (m Meta) Capacity() float64 {
	return m.LinkBytesPerSec * m.Interval.Seconds()
}

// Duration returns the total trace duration.
func (m Meta) Duration() time.Duration {
	return time.Duration(m.Intervals) * m.Interval
}

// Validate checks the metadata for obvious inconsistencies.
func (m Meta) Validate() error {
	// The comparison is written so that NaN (which fails every comparison)
	// is rejected too — a corrupt trace header must not produce a source
	// whose capacity arithmetic silently poisons every threshold.
	if !(m.LinkBytesPerSec > 0) || math.IsInf(m.LinkBytesPerSec, 1) {
		return cfgerr.New("trace", "LinkBytesPerSec", "must be positive and finite, got %g", m.LinkBytesPerSec)
	}
	if m.Interval <= 0 {
		return cfgerr.New("trace", "Interval", "must be positive, got %v", m.Interval)
	}
	if m.Intervals <= 0 {
		return cfgerr.New("trace", "Intervals", "must be positive, got %d", m.Intervals)
	}
	return nil
}

// Source is a stream of packets in non-decreasing time order.
type Source interface {
	// Meta returns the trace metadata.
	Meta() Meta
	// Next returns the next packet; it returns io.EOF after the last one.
	Next() (flow.Packet, error)
}

// Consumer receives a replayed trace: every packet in order, plus an
// EndInterval callback at each measurement-interval boundary. EndInterval is
// called exactly Meta().Intervals times, the last time after the final
// packet.
type Consumer interface {
	Packet(p *flow.Packet)
	EndInterval(interval int)
}

// DefaultBatchSize is the packet batch size Replay uses unless overridden
// with WithBatchSize. Large enough to amortize per-batch overhead, small
// enough that a batch of packets plus its extracted keys stays L1-resident.
const DefaultBatchSize = 256

// BatchConsumer is a Consumer with a batched packet path. PacketBatch must
// be equivalent to calling Packet on each packet in order; the slice is only
// valid for the duration of the call.
type BatchConsumer interface {
	Consumer
	PacketBatch(pkts []flow.Packet)
}

// ReplayOption customizes Replay.
type ReplayOption func(*replayOptions)

type replayOptions struct {
	batchSize int
	progress  func(packets int)
	stop      func() bool
}

// WithBatchSize sets the delivery batch size. n <= 0 selects
// DefaultBatchSize; n == 1 delivers packets one at a time, the behavior of
// the original unbatched replay loop.
func WithBatchSize(n int) ReplayOption {
	return func(o *replayOptions) {
		if n <= 0 {
			n = DefaultBatchSize
		}
		o.batchSize = n
	}
}

// WithProgress registers fn to be called with the cumulative packet count
// after every delivered batch and once after the final interval closes.
// fn runs on the replay goroutine, so an expensive callback slows the
// replay down by exactly its own cost.
func WithProgress(fn func(packets int)) ReplayOption {
	return func(o *replayOptions) { o.progress = fn }
}

// ErrStopped is returned by Replay when a WithStop hook ended the replay
// early — an orderly interruption (a drain signal), not a trace failure.
var ErrStopped = fmt.Errorf("trace: replay stopped")

// WithStop registers a hook polled at batch boundaries; when it returns
// true, Replay flushes the packets already buffered and returns ErrStopped
// without closing the remaining intervals. The device's signal handler uses
// it to stop consuming mid-trace and drain what was already measured.
func WithStop(fn func() bool) ReplayOption {
	return func(o *replayOptions) { o.stop = fn }
}

// batchSource is a Source that decodes many packets per call straight into
// a caller's buffer, as Reader does. ReadBatch fills dst and returns
// len(dst), nil, or returns fewer packets with the error that ended the
// stream (io.EOF at its clean end).
type batchSource interface {
	ReadBatch(dst []flow.Packet) (int, error)
}

// readBatch fills dst from src, by its ReadBatch when it has one and by
// one Next call per packet otherwise, with ReadBatch's contract.
func readBatch(src Source, dst []flow.Packet) (int, error) {
	if bs, ok := src.(batchSource); ok {
		return bs.ReadBatch(dst)
	}
	for i := range dst {
		p, err := src.Next()
		if err != nil {
			return i, err
		}
		dst[i] = p
	}
	return len(dst), nil
}

// Replay streams src into c, detecting measurement-interval boundaries from
// packet timestamps; packets past the trace's nominal end are attributed to
// the last interval. It returns the number of packets replayed.
//
// Packets are delivered in batches of up to WithBatchSize packets
// (DefaultBatchSize unless overridden) via c's PacketBatch fast path when it
// has one, falling back to per-packet delivery otherwise. Batches never span
// interval boundaries — a partial batch is flushed before each EndInterval —
// so the consumer observes exactly the same packet/interval sequence at any
// batch size and produces bit-identical reports.
//
// Replay pulls packets into its one batch buffer a batch at a time —
// decoded in place when src is a Reader — and hands the consumer
// sub-slices of it. A packet is checked against its interval's time span;
// only one outside it costs a division.
func Replay(src Source, c Consumer, opts ...ReplayOption) (int, error) {
	o := replayOptions{batchSize: DefaultBatchSize}
	for _, opt := range opts {
		opt(&o)
	}
	m := src.Meta()
	if err := m.Validate(); err != nil {
		return 0, err
	}
	bc, _ := c.(BatchConsumer)
	buf := make([]flow.Packet, o.batchSize)
	packets := 0
	deliver := func(batch []flow.Packet) {
		if len(batch) == 0 {
			return
		}
		if bc != nil {
			bc.PacketBatch(batch)
		} else {
			for i := range batch {
				c.Packet(&batch[i])
			}
		}
		packets += len(batch)
		if o.progress != nil {
			o.progress(packets)
		}
	}
	cur := 0
	lo, hi := intervalSpan(m, cur)
	fill := 0 // buf[:fill] is the batch being filled, all in interval cur
	for {
		if o.stop != nil && fill == 0 && o.stop() {
			return packets, ErrStopped
		}
		n, err := readBatch(src, buf[fill:])
		end := fill + n
		for i := fill; i < end; i++ {
			t := buf[i].Time
			if t >= lo && t < hi {
				continue
			}
			iv := int(t / m.Interval)
			if iv >= m.Intervals {
				iv = m.Intervals - 1
			}
			if iv == cur {
				continue
			}
			deliver(buf[:i])
			if iv < cur {
				return packets, fmt.Errorf("trace: packet at %v out of order (interval %d < %d)", t, iv, cur)
			}
			for cur < iv {
				c.EndInterval(cur)
				cur++
			}
			lo, hi = intervalSpan(m, cur)
			// Packet i opens the new interval's first batch: move it and
			// the packets after it to the front of the buffer.
			end = copy(buf, buf[i:end])
			i = 0
		}
		fill = end
		if fill == len(buf) {
			deliver(buf)
			fill = 0
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			deliver(buf[:fill])
			return packets, err
		}
	}
	deliver(buf[:fill])
	for cur < m.Intervals {
		c.EndInterval(cur)
		cur++
	}
	if o.progress != nil {
		o.progress(packets)
	}
	return packets, nil
}

// intervalSpan returns the times [lo, hi) that certainly fall in interval
// cur: from its start to the next boundary, or, for the last interval,
// which also takes the packets past the nominal end, to the end of time.
// hi stays at math.MaxInt64 where the next boundary would overflow; a packet
// outside the span is placed by division.
func intervalSpan(m Meta, cur int) (lo, hi time.Duration) {
	lo, hi = time.Duration(cur)*m.Interval, math.MaxInt64
	if cur < m.Intervals-1 && lo <= math.MaxInt64-m.Interval {
		hi = lo + m.Interval
	}
	return lo, hi
}

// SliceSource serves packets from a slice. It is the in-memory Source used
// by tests and by traces loaded whole.
type SliceSource struct {
	meta Meta
	pkts []flow.Packet
	pos  int
}

// NewSliceSource builds a Source from packets, which must already be in
// non-decreasing time order.
func NewSliceSource(meta Meta, pkts []flow.Packet) *SliceSource {
	return &SliceSource{meta: meta, pkts: pkts}
}

// Meta implements Source.
func (s *SliceSource) Meta() Meta { return s.meta }

// Next implements Source.
func (s *SliceSource) Next() (flow.Packet, error) {
	if s.pos >= len(s.pkts) {
		return flow.Packet{}, io.EOF
	}
	p := s.pkts[s.pos]
	s.pos++
	return p, nil
}

// Reset rewinds the source to the beginning.
func (s *SliceSource) Reset() { s.pos = 0 }

// Collect drains a source into memory and returns a rewindable SliceSource.
func Collect(src Source) (*SliceSource, error) {
	var pkts []flow.Packet
	for {
		p, err := src.Next()
		if err == io.EOF {
			return NewSliceSource(src.Meta(), pkts), nil
		}
		if err != nil {
			return nil, err
		}
		pkts = append(pkts, p)
	}
}

// FuncConsumer adapts two closures into a Consumer.
type FuncConsumer struct {
	OnPacket      func(p *flow.Packet)
	OnEndInterval func(interval int)
}

// Packet implements Consumer.
func (f FuncConsumer) Packet(p *flow.Packet) {
	if f.OnPacket != nil {
		f.OnPacket(p)
	}
}

// EndInterval implements Consumer.
func (f FuncConsumer) EndInterval(i int) {
	if f.OnEndInterval != nil {
		f.OnEndInterval(i)
	}
}
