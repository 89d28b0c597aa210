package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/flow"
)

// Binary trace format ("HHTR"): a compact, streamable on-disk encoding of a
// trace. Layout, all little-endian:
//
//	magic   [4]byte  "HHTR"
//	version uint16   (currently 1)
//	flags   uint16   bit 0: HasAS
//	linkBps float64  link capacity, bytes/second
//	interval int64   measurement interval, nanoseconds
//	intervals int32  number of measurement intervals
//	nameLen  uint16  followed by nameLen bytes of trace name
//	packets  ...     repeated packet records until EOF
//
// Each packet record is varint-encoded: time delta from the previous packet
// in nanoseconds, size, source IP, destination IP, source port, destination
// port, protocol, and (when flags bit 0 is set) source and destination AS.
// Delta-encoding the monotone timestamps keeps records small.

const (
	formatMagic   = "HHTR"
	formatVersion = 1
	flagHasAS     = 1 << 0
)

// Writer streams packets into the binary trace format.
type Writer struct {
	w        *bufio.Writer
	hasAS    bool
	lastTime time.Duration
	scratch  [binary.MaxVarintLen64]byte
	started  bool
}

// NewWriter writes a header for meta to w and returns a Writer for the
// packet stream. Call Flush when done.
func NewWriter(w io.Writer, meta Meta) (*Writer, error) {
	if err := meta.Validate(); err != nil {
		return nil, err
	}
	if len(meta.Name) > math.MaxUint16 {
		return nil, errors.New("trace: name too long")
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(formatMagic); err != nil {
		return nil, err
	}
	var flags uint16
	if meta.HasAS {
		flags |= flagHasAS
	}
	for _, v := range []any{
		uint16(formatVersion),
		flags,
		math.Float64bits(meta.LinkBytesPerSec),
		int64(meta.Interval),
		int32(meta.Intervals),
		uint16(len(meta.Name)),
	} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return nil, err
		}
	}
	if _, err := bw.WriteString(meta.Name); err != nil {
		return nil, err
	}
	return &Writer{w: bw, hasAS: meta.HasAS}, nil
}

func (w *Writer) putUvarint(v uint64) error {
	n := binary.PutUvarint(w.scratch[:], v)
	_, err := w.w.Write(w.scratch[:n])
	return err
}

// WritePacket appends one packet. Packets must arrive in non-decreasing
// time order.
func (w *Writer) WritePacket(p *flow.Packet) error {
	if w.started && p.Time < w.lastTime {
		return fmt.Errorf("trace: packet at %v before previous %v", p.Time, w.lastTime)
	}
	delta := p.Time - w.lastTime
	if !w.started {
		delta = p.Time
		w.started = true
	}
	w.lastTime = p.Time
	fields := []uint64{
		uint64(delta),
		uint64(p.Size),
		uint64(p.SrcIP),
		uint64(p.DstIP),
		uint64(p.SrcPort),
		uint64(p.DstPort),
		uint64(p.Proto),
	}
	if w.hasAS {
		fields = append(fields, uint64(p.SrcAS), uint64(p.DstAS))
	}
	for _, f := range fields {
		if err := w.putUvarint(f); err != nil {
			return err
		}
	}
	return nil
}

// Flush writes any buffered data to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// WriteAll drains src into w in trace format.
func WriteAll(w io.Writer, src Source) (int, error) {
	tw, err := NewWriter(w, src.Meta())
	if err != nil {
		return 0, err
	}
	n := 0
	for {
		p, err := src.Next()
		if err == io.EOF {
			return n, tw.Flush()
		}
		if err != nil {
			return n, err
		}
		if err := tw.WritePacket(&p); err != nil {
			return n, err
		}
		n++
	}
}

// maxRecordLen bounds one packet record: at most nine varint fields (with
// AS numbers), each at most binary.MaxVarintLen64 bytes. While this many
// bytes are buffered, a record — or the overflow that ends it — lies wholly
// inside the window, so the fast path never checks for the end of the
// stream.
const maxRecordLen = 9 * binary.MaxVarintLen64

// errOverflow reports a varint longer than 64 bits.
var errOverflow = errors.New("varint overflows a 64-bit integer")

// ErrTimeBackwards reports a packet record whose time delta would put it
// before the previous packet. Deltas are unsigned, so only one that wraps
// the 64-bit time around can do that; the writer never produces one. The
// first record is exempt: its delta is its own time, which may be negative.
var ErrTimeBackwards = errors.New("trace: packet time before the previous packet's")

// Reader streams packets from the binary trace format; it implements
// Source. It decodes records in place from its bufio window (Peek, then
// Discard) rather than one ReadByte call per byte, and ReadBatch decodes
// many records per call straight into a caller's buffer.
type Reader struct {
	r        *bufio.Reader
	meta     Meta
	lastTime time.Duration
	// win is the bufio window being decoded; its first used bytes are
	// decoded but not yet discarded. A window is at most bufio's buffer
	// (4096 bytes unless the caller's own *bufio.Reader is larger), so used
	// fits an int32, which leaves room for started beside it.
	win  []byte
	used int32
	// started is set once a record has been decoded: every later record's
	// time must not come before lastTime.
	started bool
	// err is the error that ends the buffered bytes. bufio reports it only
	// once, with the short window before it, so it is kept until the
	// records in that window are decoded and then reported once, where
	// bufio's ReadByte would have reported it.
	err error
}

// NewReader parses the header from r and returns a Source for the packet
// stream.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != formatMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	var (
		version, flags, nameLen uint16
		linkBits                uint64
		intervalNs              int64
		intervals               int32
	)
	for _, v := range []any{&version, &flags, &linkBits, &intervalNs, &intervals, &nameLen} {
		if err := binary.Read(br, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("trace: reading header: %w", err)
		}
	}
	if version != formatVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", version)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	meta := Meta{
		Name:            string(name),
		LinkBytesPerSec: math.Float64frombits(linkBits),
		Interval:        time.Duration(intervalNs),
		Intervals:       int(intervals),
		HasAS:           flags&flagHasAS != 0,
	}
	if err := meta.Validate(); err != nil {
		return nil, err
	}
	return &Reader{r: br, meta: meta}, nil
}

// Meta implements Source.
func (r *Reader) Meta() Meta { return r.meta }

// Next implements Source: it decodes one record with ReadBatch.
func (r *Reader) Next() (flow.Packet, error) {
	var p [1]flow.Packet
	if _, err := r.ReadBatch(p[:]); err != nil {
		return flow.Packet{}, err
	}
	return p[0], nil
}

// ReadBatch decodes up to len(dst) packets into dst and returns how many it
// decoded. It stops early only with an error: io.EOF at a clean end of the
// stream, otherwise the read or decode error, and the packets before it are
// valid. It returns len(dst), nil once dst is full without looking past the
// last record, so the error surfaces on the following call.
func (r *Reader) ReadBatch(dst []flow.Packet) (int, error) {
	for n := range dst {
		var err error
		if len(r.win)-int(r.used) >= maxRecordLen {
			var end int
			end, err = r.decode(r.win, int(r.used), &dst[n])
			r.used = int32(end)
		} else {
			err = r.refill(&dst[n])
		}
		if err != nil {
			return n, err
		}
	}
	return len(dst), nil
}

// refill discards the decoded part of the window, peeks the next one and
// decodes a record from it into p. Fewer than maxRecordLen bytes in the new
// window means the stream ends or fails within them: those records take the
// checked path, which consumes them itself and leaves no window.
func (r *Reader) refill(p *flow.Packet) error {
	r.r.Discard(int(r.used))
	r.win, r.used = nil, 0
	if r.err == nil {
		win, err := r.r.Peek(maxRecordLen)
		if len(win) == maxRecordLen {
			r.win, _ = r.r.Peek(r.r.Buffered())
			var end int
			end, err = r.decode(r.win, 0, p)
			r.used = int32(end)
			return err
		}
		r.err = err
	}
	win, _ := r.r.Peek(r.r.Buffered())
	return r.decodeTail(win, p)
}

// decodeTail is the checked path: it decodes the record in win, the last
// bytes before the stream's error r.err, from a zero-padded copy so that
// decode never reads past its buffer. A zero byte ends a varint, so a
// record cut short decodes past len(win) and is reported as truncated.
// Once win is used up, r.err is reported and forgotten, so a later call
// reads on from the underlying reader, as bufio's ReadByte did.
func (r *Reader) decodeTail(win []byte, p *flow.Packet) error {
	err := r.err
	if len(win) == 0 {
		r.err = nil
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("trace: reading packet: %w", err)
	}
	var pad [maxRecordLen]byte
	copy(pad[:], win)
	last, started := r.lastTime, r.started
	end, derr := r.decode(pad[:], 0, p)
	if end <= len(win) {
		r.r.Discard(end)
		return derr
	}
	// Truncated: find the field the stream ended in, and report it as the
	// byte-at-a-time reader did — io.EOF for a field with no bytes, an
	// unexpected EOF for one cut short. Every byte with a clear top bit in
	// win ends a whole field.
	r.lastTime, r.started = last, started
	r.r.Discard(len(win))
	r.err = nil
	field, start := 0, 0
	for j, c := range win {
		if c < 0x80 {
			field, start = field+1, j+1
		}
	}
	if start < len(win) && err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if field == 0 {
		return fmt.Errorf("trace: reading packet: %w", err)
	}
	return fmt.Errorf("trace: truncated packet record: %w", err)
}

// decode decodes the record at b[off:] into p and returns the offset past
// it. b must hold at least maxRecordLen bytes from off, so no field runs
// off its end. Each field is a varint, accepted exactly as
// binary.ReadUvarint accepts it. The errors are a varint overflow, with the
// offset past the overflowing field, and ErrTimeBackwards, with the offset
// past the record; neither advances the reader's time.
func (r *Reader) decode(b []byte, off int, p *flow.Packet) (int, error) {
	var f [9]uint64
	nf := 7
	if r.meta.HasAS {
		nf = 9
	}
	i := off
	for k := 0; k < nf; k++ {
		var ok bool
		if f[k], i, ok = uvarint(b, i); !ok {
			if k == 0 {
				return i, fmt.Errorf("trace: reading packet: %w", errOverflow)
			}
			return i, fmt.Errorf("trace: truncated packet record: %w", errOverflow)
		}
	}
	t := r.lastTime + time.Duration(f[0])
	if t < r.lastTime && r.started {
		return i, timeBackwards(t, r.lastTime)
	}
	r.lastTime, r.started = t, true
	*p = flow.Packet{
		Time:    t,
		Size:    uint32(f[1]),
		SrcIP:   uint32(f[2]),
		DstIP:   uint32(f[3]),
		SrcPort: uint16(f[4]),
		DstPort: uint16(f[5]),
		Proto:   uint8(f[6]),
		SrcAS:   uint16(f[7]),
		DstAS:   uint16(f[8]),
	}
	return i, nil
}

// timeBackwards returns the ErrTimeBackwards error for a record at t after
// one at last. It is kept out of decode so the error path costs the
// decoder nothing.
//
//go:noinline
func timeBackwards(t, last time.Duration) error {
	return fmt.Errorf("%w: %v after %v", ErrTimeBackwards, t, last)
}

// uvarint decodes the varint at b[i:], which must hold at least
// binary.MaxVarintLen64 bytes, and returns its value and the offset past it.
// ok is false if it overflows 64 bits; next is then past its tenth byte,
// where binary.ReadUvarint stops too.
func uvarint(b []byte, i int) (v uint64, next int, ok bool) {
	for s := 0; s < binary.MaxVarintLen64; s++ {
		c := b[i+s]
		if c < 0x80 {
			if s == binary.MaxVarintLen64-1 && c > 1 {
				return v, i + s + 1, false
			}
			return v | uint64(c)<<(7*s), i + s + 1, true
		}
		v |= uint64(c&0x7f) << (7 * s)
	}
	return v, i + binary.MaxVarintLen64, false
}
