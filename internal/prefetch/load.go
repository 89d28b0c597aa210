package prefetch

import "unsafe"

// loadOffsets warms the lines with real loads, skipping any offset not
// below len(base). It is not inlined, so the returned sum keeps the loads
// live even though callers discard it. It backs Offsets on architectures
// without a prefetch instruction here, and is tested on every architecture.
//
//go:noinline
func loadOffsets(base []uint64, offs []uint32) (sum uint64) {
	for _, o := range offs {
		if uint(o) < uint(len(base)) {
			sum += base[o]
		}
	}
	return sum
}

// loadAddrs is loadOffsets for a list of addresses: one byte load each.
//
//go:noinline
func loadAddrs(addrs []unsafe.Pointer) (sum uint64) {
	for _, p := range addrs {
		sum += uint64(*(*byte)(p))
	}
	return sum
}
