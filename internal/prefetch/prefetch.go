// Package prefetch issues software prefetch hints for whole tiles of
// addresses at once: the batch kernels hash a tile of packets, then hand
// every cache line that tile's update phase will touch to one call here, so
// the lines' misses are in flight together while earlier tiles are updated.
//
// On amd64 each address becomes a PREFETCHT0 and on arm64 a PRFM PLDL1KEEP:
// non-blocking hints that retire at once, so a missing line never stalls the
// reorder buffer the way a demand load does. Other architectures fall back
// to ordinary loads whose values are summed and returned, which the
// compiler cannot drop; those loads are compiled and tested everywhere.
//
// A prefetch is only a hint: it changes no memory, cannot fault and has no
// effect a program can observe except timing. One call per tile keeps the
// call overhead off the per-packet path.
package prefetch
