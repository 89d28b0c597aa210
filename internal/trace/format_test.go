package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
	"time"

	"repro/internal/flow"
)

func TestFormatRoundTrip(t *testing.T) {
	m := testMeta()
	pkts := []flow.Packet{
		{Time: 0, Size: 40, SrcIP: 0x0a000001, DstIP: 0x0b000001, SrcPort: 1234, DstPort: 80, Proto: 6, SrcAS: 1, DstAS: 2},
		{Time: 5 * time.Millisecond, Size: 1500, SrcIP: 0xffffffff, DstIP: 1, SrcPort: 65535, DstPort: 65535, Proto: 17, SrcAS: 65535, DstAS: 65535},
		{Time: 5 * time.Millisecond, Size: 576, SrcIP: 3, DstIP: 4, Proto: 1}, // equal timestamps allowed
		{Time: 2500 * time.Millisecond, Size: 100, SrcIP: 5, DstIP: 6, SrcPort: 1, DstPort: 2, Proto: 6, SrcAS: 10, DstAS: 20},
	}
	var buf bytes.Buffer
	n, err := WriteAll(&buf, NewSliceSource(m, pkts))
	if err != nil || n != len(pkts) {
		t.Fatalf("WriteAll: n=%d err=%v", n, err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Meta() != m {
		t.Errorf("meta round trip: got %+v want %+v", r.Meta(), m)
	}
	for i, want := range pkts {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if got != want {
			t.Errorf("packet %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestFormatNoASRoundTrip(t *testing.T) {
	m := testMeta()
	m.HasAS = false
	// AS fields must not survive a HasAS=false round trip.
	pkts := []flow.Packet{
		{Time: time.Millisecond, Size: 40, SrcIP: 1, DstIP: 2, Proto: 6, SrcAS: 7, DstAS: 8},
	}
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, NewSliceSource(m, pkts)); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcAS != 0 || got.DstAS != 0 {
		t.Errorf("AS fields leaked through HasAS=false format: %+v", got)
	}
	want := pkts[0]
	want.SrcAS, want.DstAS = 0, 0
	if got != want {
		t.Errorf("got %+v want %+v", got, want)
	}
}

func TestWriterRejectsOutOfOrder(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	p1 := flow.Packet{Time: time.Second, Size: 40}
	p2 := flow.Packet{Time: time.Millisecond, Size: 40}
	if err := w.WritePacket(&p1); err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(&p2); err == nil {
		t.Error("out-of-order packet accepted by writer")
	}
}

func TestReaderBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("XXXX123456789012345678901234"))); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestReaderTruncatedHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("HHTR\x01"))); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestReaderTruncatedPacket(t *testing.T) {
	m := testMeta()
	pkts := []flow.Packet{{Time: time.Millisecond, Size: 40, SrcIP: 1, DstIP: 2, Proto: 6, SrcAS: 1, DstAS: 1}}
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, NewSliceSource(m, pkts)); err != nil {
		t.Fatal(err)
	}
	// Cut the last byte: the packet record becomes unreadable.
	data := buf.Bytes()[:buf.Len()-1]
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Errorf("truncated packet gave %v, want a non-EOF error", err)
	}
}

// TestReaderRejectsTimeGoingBackwards feeds a record whose 2^63 delta
// wraps time back before the previous packet's: the reader reports
// ErrTimeBackwards for it, keeps its time, and reads on.
func TestReaderRejectsTimeGoingBackwards(t *testing.T) {
	meta := Meta{Name: "wrap", LinkBytesPerSec: 1e6, Interval: time.Second, Intervals: 1}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rec := func(delta uint64) {
		for _, v := range []uint64{delta, 40, 1, 2, 3, 4, 6} {
			buf.Write(binary.AppendUvarint(nil, v))
		}
	}
	rec(10)
	rec(1 << 63)
	rec(10)
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if p, err := r.Next(); err != nil || p.Time != 10 {
		t.Fatalf("first packet: %+v, %v", p, err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrTimeBackwards) {
		t.Fatalf("wrapping delta gave %v, want ErrTimeBackwards", err)
	}
	if p, err := r.Next(); err != nil || p.Time != 20 {
		t.Fatalf("packet after the rejected record: %+v, %v; want time 20ns", p, err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("end: %v, want io.EOF", err)
	}
}

// TestReaderAcceptsFarApartTimes round-trips times more than
// math.MaxInt64 apart, whose delta the writer encodes as 2^63 or more, and
// a negative first time: neither goes backwards.
func TestReaderAcceptsFarApartTimes(t *testing.T) {
	pkts := []flow.Packet{
		{Time: -math.MaxInt64 + 5, Size: 40},
		{Time: -1 << 62, Size: 40},
		{Time: 1 << 62, Size: 40},
		{Time: math.MaxInt64, Size: 40},
	}
	var buf bytes.Buffer
	meta := Meta{Name: "far", LinkBytesPerSec: 1e6, Interval: time.Second, Intervals: 1}
	if _, err := WriteAll(&buf, NewSliceSource(meta, pkts)); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range pkts {
		p, err := r.Next()
		if err != nil || p.Time != want.Time {
			t.Fatalf("packet %d: %+v, %v; want time %v", i, p, err, want.Time)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("end: %v, want io.EOF", err)
	}
}

func TestReaderBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, NewSliceSource(testMeta(), nil)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 99 // version field
	if _, err := NewReader(bytes.NewReader(data)); err == nil {
		t.Error("bad version accepted")
	}
}

func TestFormatGeneratorRoundTrip(t *testing.T) {
	cfg := smallConfig()
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := Collect(g)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	orig.Reset()
	n, err := WriteAll(&buf, orig)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	orig.Reset()
	count := 0
	for {
		want, err1 := orig.Next()
		got, err2 := back.Next()
		if (err1 == io.EOF) != (err2 == io.EOF) {
			t.Fatalf("length mismatch at %d/%d", count, n)
		}
		if err1 == io.EOF {
			break
		}
		if got != want {
			t.Fatalf("packet %d: got %+v want %+v", count, got, want)
		}
		count++
	}
	if count != n {
		t.Errorf("round-tripped %d packets, wrote %d", count, n)
	}
}

// failingWriter always errors, exercising writer error propagation.
type failingWriter struct{}

func (failingWriter) Write(p []byte) (int, error) { return 0, io.ErrClosedPipe }

func TestWriterPropagatesIOErrors(t *testing.T) {
	w, err := NewWriter(failingWriter{}, testMeta())
	if err != nil {
		return // error surfaced at header time: fine
	}
	p := flow.Packet{Time: time.Millisecond, Size: 40}
	w.WritePacket(&p)
	if err := w.Flush(); err == nil {
		t.Error("write error never surfaced")
	}
}

func TestNewWriterRejectsBadMeta(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, Meta{}); err == nil {
		t.Error("invalid meta accepted")
	}
	long := testMeta()
	long.Name = string(make([]byte, 70000))
	if _, err := NewWriter(&buf, long); err == nil {
		t.Error("oversized name accepted")
	}
}
