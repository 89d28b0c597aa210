package prefetch

import (
	"testing"
	"unsafe"
)

// The hints change no memory: every test checks the data they pointed at
// is untouched afterwards.

func TestOffsetsEmpty(t *testing.T) {
	base := []uint64{7}
	Offsets(base, nil)
	Offsets(base, []uint32{})
	if base[0] != 7 {
		t.Fatalf("base changed: %v", base)
	}
}

func TestOffsetsSingle(t *testing.T) {
	base := []uint64{1, 2, 3}
	Offsets(base, []uint32{1})
	if base[0] != 1 || base[1] != 2 || base[2] != 3 {
		t.Fatalf("base changed: %v", base)
	}
}

// TestOffsetsLastElement hints every element of a table bigger than a page,
// the last one included, in one call and in one call per element.
func TestOffsetsLastElement(t *testing.T) {
	base := make([]uint64, 4097)
	for i := range base {
		base[i] = uint64(i)
	}
	offs := make([]uint32, len(base))
	for i := range offs {
		offs[i] = uint32(i)
	}
	Offsets(base, offs)
	Offsets(base, offs[len(offs)-1:])
	for i, v := range base {
		if v != uint64(i) {
			t.Fatalf("base[%d] = %d after prefetch", i, v)
		}
	}
}

func TestAddrs(t *testing.T) {
	Addrs(nil)
	ctrl := make([]uint8, 64)
	words := make([]uint64, 64)
	addrs := []unsafe.Pointer{
		unsafe.Pointer(&ctrl[0]),
		unsafe.Pointer(&ctrl[len(ctrl)-1]),
		unsafe.Pointer(&words[len(words)-1]),
	}
	Addrs(addrs)
	Addrs(addrs[2:])
	for i := range ctrl {
		if ctrl[i] != 0 || words[i] != 0 {
			t.Fatalf("memory changed at %d", i)
		}
	}
}

// BenchmarkOffsets is one tile of a four-stage filter: 128 counter offsets
// scattered over a 32 MiB table.
func BenchmarkOffsets(b *testing.B) {
	base := make([]uint64, 4<<20)
	offs := make([]uint32, 128)
	x := uint32(12345)
	for i := range offs {
		x = x*1664525 + 1013904223
		offs[i] = x % uint32(len(base))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Offsets(base, offs)
	}
}

// The portable fallback is tested here directly, so it runs on every
// architecture and not only where it backs Offsets and Addrs: its sums show
// which elements it loaded.

func TestLoadOffsets(t *testing.T) {
	base := []uint64{1, 10, 100, 1000}
	cases := []struct {
		offs []uint32
		want uint64
	}{
		{nil, 0},
		{[]uint32{}, 0},
		{[]uint32{2}, 100},
		{[]uint32{3}, 1000},               // the last element
		{[]uint32{0, 3, 3}, 2001},         // repeats load again
		{[]uint32{1, 4, 1 << 31, 2}, 110}, // past the end: skipped
	}
	for _, c := range cases {
		if got := loadOffsets(base, c.offs); got != c.want {
			t.Errorf("loadOffsets(%v) = %d, want %d", c.offs, got, c.want)
		}
	}
	if got := loadOffsets(nil, []uint32{0}); got != 0 {
		t.Errorf("loadOffsets on an empty table = %d, want 0", got)
	}
	if base[0] != 1 || base[1] != 10 || base[2] != 100 || base[3] != 1000 {
		t.Fatalf("base changed: %v", base)
	}
}

func TestLoadAddrs(t *testing.T) {
	if got := loadAddrs(nil); got != 0 {
		t.Errorf("loadAddrs(nil) = %d, want 0", got)
	}
	ctrl := []uint8{3, 5, 7}
	words := []uint64{0x1122, 0x3344}
	addrs := []unsafe.Pointer{
		unsafe.Pointer(&ctrl[0]),
		unsafe.Pointer(&ctrl[len(ctrl)-1]),
		unsafe.Pointer(&words[len(words)-1]),
	}
	// One byte is loaded per address: the low byte of a little-endian
	// word, or its high byte on a big-endian machine.
	low := uint64(*(*byte)(unsafe.Pointer(&words[1])))
	if got, want := loadAddrs(addrs), 3+7+low; got != want {
		t.Errorf("loadAddrs = %d, want %d", got, want)
	}
	if ctrl[0] != 3 || ctrl[1] != 5 || ctrl[2] != 7 || words[0] != 0x1122 || words[1] != 0x3344 {
		t.Fatalf("memory changed: %v %v", ctrl, words)
	}
}
