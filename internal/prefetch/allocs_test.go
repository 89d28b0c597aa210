//go:build !race

// The race detector changes the allocator's behavior, so the allocation
// guards only exist in non-race builds; CI runs them in a dedicated step.

package prefetch

import (
	"testing"
	"unsafe"
)

// TestZeroAllocs guards both entry points, and the portable loads behind
// them on other architectures, at a tile's size: the batch kernels call
// them once per tile, so they must not allocate.
func TestZeroAllocs(t *testing.T) {
	base := make([]uint64, 1024)
	offs := make([]uint32, 128)
	for i := range offs {
		offs[i] = uint32(i * 7)
	}
	if n := testing.AllocsPerRun(100, func() { Offsets(base, offs) }); n != 0 {
		t.Fatalf("Offsets allocates %v per call", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		var addrs [96]unsafe.Pointer
		for i := range addrs {
			addrs[i] = unsafe.Pointer(&base[i*8])
		}
		Addrs(addrs[:])
	}); n != 0 {
		t.Fatalf("Addrs allocates %v per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { loadOffsets(base, offs) }); n != 0 {
		t.Fatalf("loadOffsets allocates %v per call", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		var addrs [96]unsafe.Pointer
		for i := range addrs {
			addrs[i] = unsafe.Pointer(&base[i*8])
		}
		loadAddrs(addrs[:])
	}); n != 0 {
		t.Fatalf("loadAddrs allocates %v per call", n)
	}
}
