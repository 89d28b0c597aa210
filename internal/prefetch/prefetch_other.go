//go:build !amd64 && !arm64

package prefetch

import "unsafe"

// Offsets hints that &base[o] will be read soon, for each o in offs. Every
// offset must be below len(base); this portable version skips any that is
// not.
func Offsets(base []uint64, offs []uint32) { loadOffsets(base, offs) }

// Addrs hints that each address in addrs will be read soon.
func Addrs(addrs []unsafe.Pointer) { loadAddrs(addrs) }
