// Package flowmem implements the flow memory shared by the paper's
// algorithms: a bounded table of per-flow entries held in (simulated) SRAM.
// Once a flow earns an entry — by being sampled, or by passing the
// multistage filter — every one of its subsequent packets updates the entry,
// so its traffic from that point on is counted exactly.
//
// The package also implements the interval-transition policies of Section
// 3.3.1: preserving entries of large flows across measurement intervals and
// the early removal threshold of sample and hold.
//
// # Memory layout
//
// Like the SRAM flow memory the paper models, the table is a flat,
// preallocated array: entries live in an open-addressing hash table with
// linear probing, sized at construction and never reallocated. A lookup is a
// hash, a scan of a few occupancy bytes, and a key compare — a constant
// number of touches to memory that stays cache-resident, with no pointer
// chasing and no steady-state allocation. Entries never move while an
// interval is in progress (inserts only claim empty slots), so pointers
// returned by Lookup and Insert stay valid until the next EndInterval, which
// evicts by rebuilding the table without tombstones.
//
// Each slot's 64-bit probe hash is stored in a dense array parallel to the
// entries. Probes compare the stored hash before touching the entry, so a
// collision chain scans compact hash words (8 per cache line) and loads a
// 40-byte entry only on a near-certain match — and the key is never hashed
// twice: batch kernels precompute the hash once per packet (LookupHash,
// InsertHash, PrefetchHashes) and the interval-transition rebuild re-homes
// surviving entries from their stored hashes.
package flowmem

import (
	"slices"
	"unsafe"

	"repro/internal/flow"
	"repro/internal/prefetch"
)

// Entry is one tracked flow.
type Entry struct {
	Key flow.Key
	// Bytes counted for the flow in the current measurement interval since
	// the entry existed.
	Bytes uint64
	// CreatedThisInterval marks entries added in the current interval
	// (their counts may miss the flow's earlier bytes and they are subject
	// to the early removal rule).
	CreatedThisInterval bool
	// Exact marks entries preserved from a previous interval: counting
	// covered the whole interval, so Bytes is the flow's exact traffic.
	Exact bool
	// Debt is an upper bound on the bytes the flow may have sent before
	// the entry was created (the counter floor at promotion for multistage
	// filters). Estimate-correcting reports add it to Bytes, trading the
	// lower-bound property for accuracy (Section 4.2.1 of the paper).
	Debt uint64
}

// Memory is a bounded flow table.
type Memory struct {
	capacity int
	// mask is len(slots)-1; the slot count is a power of two at most 2/3
	// full when the table holds capacity entries, so probe chains stay
	// short.
	mask uint64
	// ctrl marks occupied slots (1) so probing scans one compact byte per
	// slot and touches an Entry only on a potential match.
	ctrl []uint8
	// hashes[i] is slot i's full 64-bit probe hash; probes compare it
	// before loading the entry, so collision chains stay in the dense
	// hash array.
	hashes []uint64
	slots  []Entry
	count  int
	// rejected counts inserts refused because the table was at capacity —
	// the memory-pressure signal threshold adaptation feeds on.
	rejected uint64

	// reportScratch and keepScratch are grow-only: Report and EndInterval
	// reuse them so steady-state intervals allocate nothing once warm.
	reportScratch []Entry
	keepScratch   []kept
}

// kept is a surviving entry and its stored probe hash, carried across the
// EndInterval rebuild so re-homing never rehashes the key.
type kept struct {
	e Entry
	h uint64
}

// New creates a flow memory with room for capacity entries. It panics if
// capacity < 1.
func New(capacity int) *Memory {
	if capacity < 1 {
		panic("flowmem: capacity must be at least 1")
	}
	slots := nextPow2(capacity + capacity/2)
	return &Memory{
		capacity: capacity,
		mask:     uint64(slots - 1),
		ctrl:     make([]uint8, slots),
		hashes:   make([]uint64, slots),
		slots:    make([]Entry, slots),
	}
}

// nextPow2 returns the smallest power of two >= n (and at least 8).
func nextPow2(n int) int {
	p := 8
	for p < n {
		p <<= 1
	}
	return p
}

// Hash mixes the 128-bit flow key down to the 64-bit value that seeds the
// probe sequence. The table is not adversary-facing (keys already went
// through the measurement path), so a fixed strong mix suffices and keeps
// behavior reproducible run to run. It is exported so batch kernels can
// compute it once per packet during their hash phase and pass it to
// Prefetch, LookupHash and InsertHash.
func Hash(k flow.Key) uint64 {
	h := k.Lo*0x9E3779B97F4A7C15 + k.Hi*0xC2B2AE3D27D4EB4F
	h ^= h >> 32
	h *= 0xD6E8FEB86659FD93
	h ^= h >> 32
	h *= 0xD6E8FEB86659FD93
	h ^= h >> 32
	return h
}

// Capacity returns the table capacity in entries.
func (m *Memory) Capacity() int { return m.capacity }

// Len returns the number of entries in use.
func (m *Memory) Len() int { return m.count }

// Full reports whether the table is at capacity.
func (m *Memory) Full() bool { return m.count >= m.capacity }

// Lookup returns the entry for key, or nil. The pointer stays valid — and
// the entry in place — until the next EndInterval.
func (m *Memory) Lookup(key flow.Key) *Entry {
	return m.LookupHash(Hash(key), key)
}

// LookupHash is Lookup with the key's probe hash (Hash(key)) precomputed by
// the caller — the batch kernels hash each packet once and reuse the value
// for prefetch, lookup and insert.
func (m *Memory) LookupHash(h uint64, key flow.Key) *Entry {
	i := h & m.mask
	for m.ctrl[i] != 0 {
		if m.hashes[i] == h && m.slots[i].Key == key {
			return &m.slots[i]
		}
		i = (i + 1) & m.mask
	}
	return nil
}

// prefetchChunk is how many probe hashes PrefetchHashes hands to one
// prefetch call: a batch kernel's whole tile.
const prefetchChunk = 32

// PrefetchHashes hints the cache lines that probes for the hashes in hs
// will touch: each home slot's control byte, hash word and entry. The hints
// are issued together, a tile at a time, so their misses overlap instead of
// serializing; they change nothing the table's methods can observe.
func (m *Memory) PrefetchHashes(hs []uint64) {
	var addrs [3 * prefetchChunk]unsafe.Pointer
	for len(hs) > 0 {
		n := min(len(hs), prefetchChunk)
		for j, h := range hs[:n] {
			i := h & m.mask
			addrs[3*j] = unsafe.Pointer(&m.ctrl[i])
			addrs[3*j+1] = unsafe.Pointer(&m.hashes[i])
			addrs[3*j+2] = unsafe.Pointer(&m.slots[i])
		}
		prefetch.Addrs(addrs[:3*n])
		hs = hs[n:]
	}
}

// Rejected returns the cumulative number of inserts refused because the
// table was full. It never resets: callers tracking per-interval pressure
// take deltas.
func (m *Memory) Rejected() uint64 { return m.rejected }

// Insert adds an entry for key with an initial byte count. It returns nil
// when the table is full or the key is already present (callers are expected
// to Lookup first). Full-table refusals are counted in Rejected.
func (m *Memory) Insert(key flow.Key, initialBytes uint64) *Entry {
	return m.InsertHash(Hash(key), key, initialBytes)
}

// InsertHash is Insert with the key's probe hash precomputed by the caller.
func (m *Memory) InsertHash(h uint64, key flow.Key, initialBytes uint64) *Entry {
	if m.Full() {
		m.rejected++
		return nil
	}
	i := h & m.mask
	for m.ctrl[i] != 0 {
		if m.hashes[i] == h && m.slots[i].Key == key {
			return nil
		}
		i = (i + 1) & m.mask
	}
	m.ctrl[i] = 1
	m.hashes[i] = h
	m.count++
	e := &m.slots[i]
	*e = Entry{Key: key, Bytes: initialBytes, CreatedThisInterval: true}
	return e
}

// insertKept re-homes a surviving entry during the EndInterval rebuild from
// its stored probe hash — the key is never rehashed. The table was just
// cleared, so the slot found is always empty.
func (m *Memory) insertKept(k kept) {
	i := k.h & m.mask
	for m.ctrl[i] != 0 {
		i = (i + 1) & m.mask
	}
	m.ctrl[i] = 1
	m.hashes[i] = k.h
	m.count++
	m.slots[i] = k.e
}

// Policy is the interval-transition policy of Section 3.3.1.
type Policy struct {
	// Preserve keeps entries across the interval boundary instead of
	// erasing the table: entries that counted at least Threshold bytes
	// (identified large flows) and entries created during the interval
	// (possible large flows identified late) survive with their counters
	// reset, so the next interval is measured exactly from its first byte.
	Preserve bool
	// Threshold is the large-flow threshold T in bytes.
	Threshold uint64
	// EarlyRemoval, when non-zero, is the early removal threshold R < T:
	// entries created this interval survive only if they counted at least
	// R bytes. It prunes the small flows that sample and hold's false
	// positives would otherwise carry into the next interval.
	EarlyRemoval uint64
}

// Report returns the current entries as estimates, sorted by descending
// byte count (ties broken by key for determinism). The returned slice is
// scratch reused by the next Report call; callers must not retain it across
// calls.
func (m *Memory) Report() []Entry {
	out := m.reportScratch[:0]
	for i, c := range m.ctrl {
		if c != 0 {
			out = append(out, m.slots[i])
		}
	}
	slices.SortFunc(out, func(a, b Entry) int {
		if a.Bytes != b.Bytes {
			if a.Bytes > b.Bytes {
				return -1
			}
			return 1
		}
		if a.Key.Hi != b.Key.Hi {
			if a.Key.Hi > b.Key.Hi {
				return -1
			}
			return 1
		}
		if a.Key.Lo != b.Key.Lo {
			if a.Key.Lo > b.Key.Lo {
				return -1
			}
			return 1
		}
		return 0
	})
	m.reportScratch = out
	return out
}

// EndInterval applies the transition policy: without preservation the table
// is erased; with it, surviving entries get their byte counts reset and are
// marked Exact for the next interval. Eviction is tombstone-free: survivors
// are collected and the table rebuilt, so probe chains stay intact and
// short. It returns the number of entries kept. Entry pointers obtained
// before the call are invalid afterwards.
func (m *Memory) EndInterval(p Policy) int {
	if !p.Preserve {
		m.clear()
		return 0
	}
	keep := m.keepScratch[:0]
	for i, c := range m.ctrl {
		if c == 0 {
			continue
		}
		e := m.slots[i]
		survives := e.Bytes >= p.Threshold
		if !survives && e.CreatedThisInterval {
			survives = e.Bytes >= p.EarlyRemoval
		}
		if !survives {
			continue
		}
		e.Bytes = 0
		e.Debt = 0
		e.CreatedThisInterval = false
		e.Exact = true
		keep = append(keep, kept{e: e, h: m.hashes[i]})
	}
	m.clear()
	for _, k := range keep {
		m.insertKept(k)
	}
	m.keepScratch = keep
	return m.count
}

// clear empties the table in place.
func (m *Memory) clear() {
	clear(m.ctrl)
	m.count = 0
}
