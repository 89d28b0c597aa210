package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/flow"
)

// refReplay is the packet-at-a-time Replay loop that the batch-pulling one
// replaced, kept as the reference for the consumer-visible sequence: one
// Next call per packet, appended to the batch, with a division per packet to
// find its interval.
func refReplay(src Source, c Consumer, opts ...ReplayOption) (int, error) {
	o := replayOptions{batchSize: DefaultBatchSize}
	for _, opt := range opts {
		opt(&o)
	}
	m := src.Meta()
	if err := m.Validate(); err != nil {
		return 0, err
	}
	batchSize := o.batchSize
	bc, _ := c.(BatchConsumer)
	buf := make([]flow.Packet, 0, batchSize)
	packets := 0
	flush := func() {
		if len(buf) == 0 {
			return
		}
		if bc != nil {
			bc.PacketBatch(buf)
		} else {
			for i := range buf {
				c.Packet(&buf[i])
			}
		}
		buf = buf[:0]
		if o.progress != nil {
			o.progress(packets)
		}
	}
	cur := 0
	for {
		if o.stop != nil && len(buf) == 0 && o.stop() {
			return packets, ErrStopped
		}
		p, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			flush()
			return packets, err
		}
		iv := int(p.Time / m.Interval)
		if iv >= m.Intervals {
			iv = m.Intervals - 1
		}
		if iv < cur {
			flush()
			return packets, fmt.Errorf("trace: packet at %v out of order (interval %d < %d)", p.Time, iv, cur)
		}
		if iv > cur {
			flush()
			for cur < iv {
				c.EndInterval(cur)
				cur++
			}
		}
		buf = append(buf, p)
		packets++
		if len(buf) == batchSize {
			flush()
		}
	}
	flush()
	for cur < m.Intervals {
		c.EndInterval(cur)
		cur++
	}
	if o.progress != nil {
		o.progress(packets)
	}
	return packets, nil
}

// replayEvent is one thing a replay consumer observes.
type replayEvent struct {
	kind string // "batch", "end", "progress" or "stop?"
	n    int    // interval for "end", count for "progress"
	pkts []flow.Packet
}

// replayLog records every callback of a replay, batches by value, in order.
type replayLog struct{ events []replayEvent }

func (l *replayLog) Packet(p *flow.Packet) { l.PacketBatch([]flow.Packet{*p}) }

func (l *replayLog) PacketBatch(pkts []flow.Packet) {
	l.events = append(l.events, replayEvent{kind: "batch", pkts: append([]flow.Packet(nil), pkts...)})
}

func (l *replayLog) EndInterval(i int) { l.events = append(l.events, replayEvent{kind: "end", n: i}) }

// replayResult is everything one replay produced.
type replayResult struct {
	events []replayEvent
	n      int
	err    string
}

// replayWith runs replay over src into a fresh log, recording progress
// calls, and stop polls when stopAfter >= 0 (the poll after stopAfter
// earlier ones stops the replay).
func replayWith(replay func(Source, Consumer, ...ReplayOption) (int, error), src Source, batch, stopAfter int) replayResult {
	l := new(replayLog)
	opts := []ReplayOption{
		WithBatchSize(batch),
		WithProgress(func(n int) { l.events = append(l.events, replayEvent{kind: "progress", n: n}) }),
	}
	if stopAfter >= 0 {
		polls := 0
		opts = append(opts, WithStop(func() bool {
			l.events = append(l.events, replayEvent{kind: "stop?"})
			polls++
			return polls > stopAfter
		}))
	}
	n, err := replay(src, l, opts...)
	return replayResult{events: l.events, n: n, err: fmt.Sprint(err)}
}

// encodeTrace writes pkts as a compact trace.
func encodeTrace(t testing.TB, m Meta, pkts []flow.Packet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, NewSliceSource(m, pkts)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// randomPackets draws perIv packets in each interval listed in ivs, at
// non-decreasing times that include both ends of the interval, with random
// header fields.
func randomPackets(rng *rand.Rand, m Meta, ivs []int, perIv int) []flow.Packet {
	var pkts []flow.Packet
	for _, iv := range ivs {
		// Each interval's first and last nanosecond, then random times.
		start := int64(iv) * int64(m.Interval)
		times := []int64{start, start + int64(m.Interval) - 1}
		for len(times) < perIv {
			times = append(times, start+rng.Int63n(int64(m.Interval)))
		}
		for i := 1; i < len(times); i++ {
			for j := i; j > 0 && times[j] < times[j-1]; j-- {
				times[j], times[j-1] = times[j-1], times[j]
			}
		}
		for _, ts := range times {
			pkts = append(pkts, flow.Packet{
				Time: time.Duration(ts), Size: uint32(40 + rng.Intn(1461)),
				SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
				SrcPort: uint16(rng.Intn(1 << 16)), DstPort: uint16(rng.Intn(1 << 16)),
				Proto: uint8(rng.Intn(256)), SrcAS: uint16(rng.Intn(1 << 16)), DstAS: uint16(rng.Intn(1 << 16)),
			})
		}
	}
	return pkts
}

// TestReplayEquivalence replays the same packets from an encoded trace
// through Reader's batch decode and from a SliceSource through the Next
// adapter, at several batch sizes, and checks both against the reference
// packet-at-a-time loop: identical batches (lengths and contents),
// EndInterval indices, progress counts and stop polls, the same packet
// count and the same error.
func TestReplayEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := Meta{Name: "eq", LinkBytesPerSec: 1e6, Interval: time.Second, Intervals: 3, HasAS: true}
	sparse := m
	sparse.Intervals = 6
	dense := randomPackets(rng, m, []int{0, 1, 2}, 700)
	pastEnd := randomPackets(rng, m, []int{0, 1, 2, 3, 7}, 300) // intervals 3 and 7 lie past the end
	// Times in (-Interval, 0) fall in interval 0 by Go's truncating division.
	negative := append([]flow.Packet{{Time: -time.Second + 1, Size: 1}, {Time: -time.Nanosecond, Size: 2}}, dense...)
	cases := []struct {
		name      string
		meta      Meta
		pkts      []flow.Packet
		stopAfter int
	}{
		{"dense", m, dense, -1},
		{"empty and trailing-empty intervals", sparse, randomPackets(rng, sparse, []int{1, 3}, 500), -1},
		{"packets past the nominal end", m, pastEnd, -1},
		{"times before zero", m, negative, -1},
		{"stop mid-trace", m, dense, 3},
		{"stop before the first packet", m, dense, 0},
		{"no packets", m, nil, -1},
	}
	for _, tc := range cases {
		enc := encodeTrace(t, tc.meta, tc.pkts)
		for _, batch := range []int{1, 7, 256, 1024} {
			want := replayWith(refReplay, NewSliceSource(tc.meta, tc.pkts), batch, tc.stopAfter)
			r, err := NewReader(bytes.NewReader(enc))
			if err != nil {
				t.Fatal(err)
			}
			fromReader := replayWith(Replay, r, batch, tc.stopAfter)
			fromSlice := replayWith(Replay, NewSliceSource(tc.meta, tc.pkts), batch, tc.stopAfter)
			for _, got := range []struct {
				how string
				res replayResult
			}{{"Reader", fromReader}, {"SliceSource", fromSlice}} {
				if !reflect.DeepEqual(got.res, want) {
					t.Errorf("%s, batch %d, %s: replay diverges from the reference loop:\n%s",
						tc.name, batch, got.how, firstDiff(got.res, want))
				}
			}
		}
	}
}

// TestReplayEquivalenceErrors covers the failing replays: out-of-order
// times from a SliceSource, and io.Readers that fail mid-record. Each
// must deliver what the reference delivers — the packets buffered before
// the failure — and return the same error.
func TestReplayEquivalenceErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m := Meta{Name: "eq", LinkBytesPerSec: 1e6, Interval: time.Second, Intervals: 3, HasAS: true}
	pkts := randomPackets(rng, m, []int{0, 1, 2}, 400)
	ooo := append([]flow.Packet(nil), pkts...)
	ooo[900].Time = ooo[100].Time                                          // interval 2 back to interval 0
	early := append([]flow.Packet{{Time: -time.Second, Size: 1}}, pkts...) // interval -1
	enc := encodeTrace(t, m, pkts)
	errBroken := errors.New("disk on fire")
	cut := enc[:len(enc)*2/3]
	for cut[len(cut)-1] < 0x80 {
		cut = cut[:len(cut)-1] // end inside a varint, so mid-record
	}
	for _, batch := range []int{1, 7, 256, 1024} {
		for _, bad := range [][]flow.Packet{ooo, early} {
			want := replayWith(refReplay, NewSliceSource(m, bad), batch, -1)
			got := replayWith(Replay, NewSliceSource(m, bad), batch, -1)
			if want.err == "<nil>" {
				t.Fatal("reference accepted out-of-order packets")
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("out of order, batch %d: %s", batch, firstDiff(got, want))
			}
		}

		// Readers that fail mid-record: for good, once with their last
		// bytes and then io.EOF, and once and then go on.
		for _, failing := range []struct {
			how  string
			open func() io.Reader
		}{
			{"for good", func() io.Reader { return io.MultiReader(bytes.NewReader(cut), iotest.ErrReader(errBroken)) }},
			{"once, then io.EOF", func() io.Reader {
				return &flakyReader{data: cut, chunk: len(cut), failAt: len(cut), err: errBroken}
			}},
			{"once, then on", func() io.Reader {
				return &flakyReader{data: enc, chunk: 4096, failAt: len(cut), err: errBroken}
			}},
		} {
			ref, err := newRefReader(failing.open())
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewReader(failing.open())
			if err != nil {
				t.Fatal(err)
			}
			want := replayWith(refReplay, ref, batch, -1)
			got := replayWith(Replay, r, batch, -1)
			if want.n == 0 || want.err != fmt.Sprint(fmt.Errorf("trace: truncated packet record: %w", errBroken)) {
				t.Fatalf("reference read error %s: %d packets, %s", failing.how, want.n, want.err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("read error %s, batch %d: %s", failing.how, batch, firstDiff(got, want))
			}
		}
	}
}

// firstDiff describes where two replay results first differ.
func firstDiff(got, want replayResult) string {
	for i := 0; i < len(got.events) && i < len(want.events); i++ {
		g, w := got.events[i], want.events[i]
		if !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("event %d: got %s/%d (%d packets), want %s/%d (%d packets)",
				i, g.kind, g.n, len(g.pkts), w.kind, w.n, len(w.pkts))
		}
	}
	return fmt.Sprintf("got %d events, %d packets, error %s; want %d events, %d packets, error %s",
		len(got.events), got.n, got.err, len(want.events), want.n, want.err)
}
