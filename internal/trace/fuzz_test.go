package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/pcap"
)

// refReader is the byte-at-a-time record decoder Reader replaced, kept as
// the reference the window decoder is fuzzed against: binary.ReadUvarint on
// the bufio.Reader for every field.
type refReader struct {
	r        *bufio.Reader
	meta     Meta
	lastTime time.Duration
	started  bool
}

// newRefReader parses the header with NewReader, whose header code did not
// change, and decodes the records that follow it itself.
func newRefReader(r io.Reader) (*refReader, error) {
	hr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	return &refReader{r: hr.r, meta: hr.meta}, nil
}

func (r *refReader) Meta() Meta { return r.meta }

func (r *refReader) Next() (flow.Packet, error) {
	delta, err := binary.ReadUvarint(r.r)
	if err == io.EOF {
		return flow.Packet{}, io.EOF
	}
	if err != nil {
		return flow.Packet{}, fmt.Errorf("trace: reading packet: %w", err)
	}
	nFields := 6
	if r.meta.HasAS {
		nFields = 8
	}
	var fields [8]uint64
	for i := 0; i < nFields; i++ {
		fields[i], err = binary.ReadUvarint(r.r)
		if err != nil {
			return flow.Packet{}, fmt.Errorf("trace: truncated packet record: %w", err)
		}
	}
	t := r.lastTime + time.Duration(delta)
	if r.started && t < r.lastTime {
		return flow.Packet{}, fmt.Errorf("%w: %v after %v", ErrTimeBackwards, t, r.lastTime)
	}
	r.lastTime, r.started = t, true
	p := flow.Packet{
		Time:    t,
		Size:    uint32(fields[0]),
		SrcIP:   uint32(fields[1]),
		DstIP:   uint32(fields[2]),
		SrcPort: uint16(fields[3]),
		DstPort: uint16(fields[4]),
		Proto:   uint8(fields[5]),
	}
	if r.meta.HasAS {
		p.SrcAS = uint16(fields[6])
		p.DstAS = uint16(fields[7])
	}
	return p, nil
}

// errClass names the kind of error a record decoder stopped with and the
// field it stopped in: the first of a record ("reading packet") or a later
// one ("truncated packet record"). A record whose time goes backwards is
// whole, so its class names no field.
func errClass(err error) string {
	if err == nil || err == io.EOF {
		return fmt.Sprint(err)
	}
	if errors.Is(err, ErrTimeBackwards) {
		return "time backwards"
	}
	field := "first field"
	if strings.HasPrefix(err.Error(), "trace: truncated packet record: ") {
		field = "later field"
	}
	switch {
	case strings.Contains(err.Error(), "varint overflows"):
		return field + ": overflow"
	case errors.Is(err, io.ErrUnexpectedEOF):
		return field + ": cut short"
	case errors.Is(err, io.EOF):
		return field + ": missing"
	}
	return field + ": " + err.Error()
}

// decoded is what a decoder yields from a stream: its packets, and each
// error it returned, by class, with the number of packets before it.
type decoded struct {
	pkts []flow.Packet
	errs []string
}

// drain decodes a stream of size bytes with read, which returns one call's
// packets and error, going on past errors as a caller that retries would,
// until io.EOF. A record takes at least seven bytes, and an error other
// than io.EOF consumes at least one byte or the reader's one failure, so a
// decoder that yields more packets or errors than that fabricates them.
func drain(t *testing.T, how string, size int, read func() ([]flow.Packet, error)) decoded {
	t.Helper()
	var d decoded
	for calls := 0; ; calls++ {
		if calls > 2*size+4 || len(d.pkts) > size/7 {
			t.Fatalf("%s: %d packets in %d calls from %d bytes", how, len(d.pkts), calls, size)
		}
		pkts, err := read()
		d.pkts = append(d.pkts, pkts...)
		if err != nil {
			d.errs = append(d.errs, fmt.Sprintf("after %d packets: %s", len(d.pkts), errClass(err)))
		}
		if err == io.EOF {
			return d
		}
	}
}

// nextCalls adapts a Next method to drain.
func nextCalls(next func() (flow.Packet, error)) func() ([]flow.Packet, error) {
	return func() ([]flow.Packet, error) {
		p, err := next()
		if err != nil {
			return nil, err
		}
		return []flow.Packet{p}, nil
	}
}

// batchCalls adapts r.ReadBatch with batches of n packets to drain,
// checking its contract on the way: a short batch comes with an error, a
// full one without.
func batchCalls(t *testing.T, r *Reader, n int) func() ([]flow.Packet, error) {
	dst := make([]flow.Packet, n)
	return func() ([]flow.Packet, error) {
		k, err := r.ReadBatch(dst)
		if (k < n) != (err != nil) {
			t.Fatalf("ReadBatch(%d) returned %d packets with error %v", n, k, err)
		}
		return dst[:k], err
	}
}

// reportMismatch fails t unless got matches want: the same packets, then
// the same errors.
func reportMismatch(t *testing.T, how string, got, want decoded) {
	t.Helper()
	for i := 0; i < len(got.pkts) && i < len(want.pkts); i++ {
		if got.pkts[i] != want.pkts[i] {
			t.Fatalf("%s: packet %d is %+v, reference %+v", how, i, got.pkts[i], want.pkts[i])
		}
	}
	if len(got.pkts) != len(want.pkts) || !reflect.DeepEqual(got.errs, want.errs) {
		t.Fatalf("%s: %d packets, errors %q; reference %d packets, errors %q", how, len(got.pkts), got.errs, len(want.pkts), want.errs)
	}
}

// flakyReader serves data in reads of at most chunk bytes and fails once:
// the read that reaches offset failAt stops there and returns err with its
// bytes. Later reads go on with the rest of data, then return io.EOF.
type flakyReader struct {
	data          []byte
	chunk, failAt int
	err           error
	off           int
}

func (f *flakyReader) Read(p []byte) (int, error) {
	end := min(len(f.data), f.off+f.chunk, f.off+len(p))
	var err error
	if f.err != nil && end >= f.failAt {
		end, err, f.err = f.failAt, f.err, nil
	}
	n := copy(p, f.data[f.off:end])
	f.off = end
	if n == 0 && err == nil {
		err = io.EOF
	}
	return n, err
}

// recordSeeds returns trace inputs for the decoder's edge cases, built from
// a valid header: overflows, non-canonical and long varints, and records
// that straddle or end at bufio's 4096-byte window edge.
func recordSeeds(f *testing.F) [][]byte {
	var hdr bytes.Buffer
	meta := Meta{Name: "edge", LinkBytesPerSec: 1e6, Interval: time.Second, Intervals: 2}
	w, err := NewWriter(&hdr, meta)
	if err != nil {
		f.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	with := func(records ...[]byte) []byte {
		return append(append([]byte(nil), hdr.Bytes()...), bytes.Join(records, nil)...)
	}
	// rec encodes a record of seven canonical varint fields.
	rec := func(fields ...uint64) []byte {
		var b []byte
		for _, v := range fields {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	ok := rec(10, 40, 1, 2, 3, 4, 6)
	// Records of 17 bytes, enough of them to cross 4096 bytes of stream.
	var long [][]byte
	for i := 0; i < 300; i++ {
		long = append(long, rec(1000, 1500, 0xffffffff, 0x0a000001, 443, 50000, 6))
	}
	straddle := with(long...)
	// The first fill reads 4096 bytes; 4096 is not on a record boundary.
	edge := straddle[:4096]
	overflow10 := append(bytes.Repeat([]byte{0xff}, 9), 0x02) // tenth byte > 1
	overflow11 := bytes.Repeat([]byte{0x80}, 11)              // no end in ten bytes
	max64 := binary.AppendUvarint(nil, math.MaxUint64)        // ten bytes, valid
	longest := bytes.Repeat(max64, 7)                         // the longest record without AS; a first record, since its delta wraps time
	wraps := rec(1<<63, 40, 1, 2, 3, 4, 6)                    // delta 80 80 80 80 80 80 80 80 80 01
	return [][]byte{
		with(overflow10),
		with(ok, append(append([]byte{0x01}, overflow10...), ok[2:]...)),
		with(ok, overflow11),
		with([]byte{0x80, 0x00}, []byte{0x80, 0x00, 0x81, 0x00, 0x01, 0x02, 0x03, 0x04, 0x06}), // non-canonical
		with(rec(1<<56, 40, 1, 2, 3, 4, 6), ok),                                                // 9-byte delta
		with(rec(1<<63, 40, 1, 2, 3, 4, 6), ok),                                                // 10-byte delta, first record
		with(max64, rec(40, 1, 2, 3, 4, 6)),
		with(rec(1<<34, 1<<34, 1<<34, 1<<34, 1<<34, 1<<34, 1<<34), ok), // 35 bytes
		straddle,
		edge,
		with(longest, ok),
		with(ok, rec(1<<62, math.MaxUint64, math.MaxUint64, math.MaxUint64, math.MaxUint64, math.MaxUint64, math.MaxUint64), ok), // 69 bytes
		with(ok, ok, ok, ok, longest[:len(longest)-5]),   // 93 bytes: cut short in a full window
		with(ok, wraps, ok),                              // a later record's 2^63 delta wraps time backwards; the stream goes on
		with(rec(1<<63|1<<62, 40, 1, 2, 3, 4, 6), wraps), // -2^62 then 2^62: a 2^63 delta that goes forwards
		with(ok, ok[:1]),
		with(ok, ok[:len(ok)-1]),
	}
}

// FuzzReader hardens the native trace parser against corrupt files. Every
// input is decoded by Next and by ReadBatch at batch sizes 1, 7 and 256;
// each must give the same packets as the byte-at-a-time reference decoder,
// with the same classes of error (clean EOF, truncated record, varint
// overflow, read error, time going backwards) at the same places, or the
// same bad header. Each input is read whole, and from a reader that fails
// once mid-stream and goes on, and from one that fails with its last
// bytes; decoding goes on past every error. Packets that parse cleanly
// must also re-encode to a trace that parses back identically. The reader
// is the first thing to touch an untrusted trace file, so it must never
// panic, never read unboundedly ahead of its input, and never fabricate
// packets.
func FuzzReader(f *testing.F) {
	var buf bytes.Buffer
	meta := Meta{Name: "seed", LinkBytesPerSec: 1e6, Interval: time.Second, Intervals: 2, HasAS: true}
	pkts := []flow.Packet{
		{Time: 0, Size: 40, SrcIP: 1, DstIP: 2, Proto: 6, SrcAS: 1, DstAS: 2},
		{Time: time.Second, Size: 1500, SrcIP: 3, DstIP: 4, Proto: 17, SrcAS: 3, DstAS: 4},
	}
	if _, err := WriteAll(&buf, NewSliceSource(meta, pkts)); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-2])
	f.Add(valid[:10])
	f.Add([]byte("HHTR"))
	f.Add([]byte{})
	// Flip bytes in the header and in the packet section.
	for _, i := range []int{4, 8, len(valid) - 1} {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0xff
		f.Add(mut)
	}
	for _, seed := range recordSeeds(f) {
		f.Add(seed)
	}

	errFlaky := errors.New("flaky disk")
	f.Fuzz(func(t *testing.T, data []byte) {
		streams := []struct {
			how  string
			open func() io.Reader
		}{
			{"whole", func() io.Reader { return bytes.NewReader(data) }},
			{"failing once mid-stream", func() io.Reader {
				return &flakyReader{data: data, chunk: 1 + len(data)%61, failAt: len(data) * 2 / 3, err: errFlaky}
			}},
			{"failing with its last bytes", func() io.Reader {
				return &flakyReader{data: data, chunk: 1 + len(data)%61, failAt: len(data), err: errFlaky}
			}},
		}
		for _, s := range streams {
			ref, refErr := newRefReader(s.open())
			r, err := NewReader(s.open())
			if (err != nil) != (refErr != nil) {
				t.Fatalf("%s: header: got %v, reference %v", s.how, err, refErr)
			}
			if err != nil {
				continue // bad header, rejected by both
			}
			want := drain(t, s.how+", reference", len(data), nextCalls(ref.Next))
			got := drain(t, s.how+", Next", len(data), nextCalls(r.Next))
			reportMismatch(t, s.how+", Next", got, want)
			for _, n := range []int{1, 7, 256} {
				br, err := NewReader(s.open())
				if err != nil {
					t.Fatal(err)
				}
				how := fmt.Sprintf("%s, ReadBatch(%d)", s.how, n)
				reportMismatch(t, how, drain(t, how, len(data), batchCalls(t, br, n)), want)
			}
			if s.how == "whole" && len(want.errs) == 1 {
				roundTrip(t, r.Meta(), got.pkts) // the one error is the clean EOF
			}
		}
	})
}

// roundTrip checks that the meta and packets of a cleanly parsed trace
// re-encode to a trace that parses back identically.
func roundTrip(t *testing.T, meta Meta, pkts []flow.Packet) {
	t.Helper()
	var out bytes.Buffer
	n, err := WriteAll(&out, NewSliceSource(meta, pkts))
	if err != nil {
		t.Fatalf("accepted meta/packets do not re-encode: %v", err)
	}
	if n != len(pkts) {
		t.Fatalf("wrote %d packets, read %d", n, len(pkts))
	}
	back, err := NewReader(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatalf("re-encoded trace rejected: %v", err)
	}
	if back.Meta() != meta {
		t.Fatalf("meta changed across round-trip: %+v vs %+v", back.Meta(), meta)
	}
	for i := range pkts {
		pkt, err := back.Next()
		if err != nil {
			t.Fatalf("re-read packet %d: %v", i, err)
		}
		if pkt != pkts[i] {
			t.Fatalf("packet %d changed across round-trip: %+v vs %+v", i, pkt, pkts[i])
		}
	}
	if _, err := back.Next(); err != io.EOF {
		t.Fatalf("re-read has trailing packets: %v", err)
	}
}

// FuzzPcapSource hardens the pcap-to-trace adapter: whatever bytes claim to
// be a capture, the source must never panic and every packet it yields must
// respect the adapter's contract (IPv4 only — non-IPv4 frames are skipped
// and counted, not returned).
func FuzzPcapSource(f *testing.F) {
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf)
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range []flow.Packet{
		{Time: 0, Size: 40, SrcIP: 1, DstIP: 2, SrcPort: 80, DstPort: 81, Proto: 6},
		{Time: time.Millisecond, Size: 1500, SrcIP: 3, DstIP: 4, Proto: 17},
	} {
		if err := w.WritePacket(&p); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:24]) // header only
	f.Add(valid[:30]) // truncated record header
	f.Add([]byte{})
	mut := append([]byte(nil), valid...)
	mut[20] ^= 0xff // corrupt the link type
	f.Add(mut)

	meta := Meta{Name: "fuzz", LinkBytesPerSec: 1e6, Interval: time.Second, Intervals: 1}
	f.Fuzz(func(t *testing.T, data []byte) {
		src, err := NewPcapSource(bytes.NewReader(data), meta)
		if err != nil {
			return
		}
		if src.Meta() != meta {
			t.Fatal("source does not carry the supplied meta")
		}
		for i := 0; i < 10000; i++ {
			pkt, err := src.Next()
			if err != nil {
				return
			}
			if pkt.Size == 0 {
				t.Fatalf("packet %d has zero size", i)
			}
		}
	})
}
