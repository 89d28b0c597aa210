//go:build !race

// The race detector changes the allocator's behavior, so the allocation
// guards only exist in non-race builds; CI runs them in a dedicated step.

package flowmem

import (
	"testing"

	"repro/internal/flow"
)

// TestLookupUpdateZeroAllocs guards the warm per-packet path: a flow-table
// hit plus a counter update must not allocate — this is the code every
// tracked packet of every algorithm runs.
func TestLookupUpdateZeroAllocs(t *testing.T) {
	m := New(1024)
	const flows = 700
	for i := 0; i < flows; i++ {
		m.Insert(flow.Key{Lo: uint64(i)}, 1)
	}
	var k flow.Key
	i := 0
	allocs := testing.AllocsPerRun(10000, func() {
		k.Lo = uint64(i % flows)
		i++
		if e := m.Lookup(k); e != nil {
			e.Bytes += 1000
		}
		k.Lo = uint64(i%flows) + flows // miss path
		if m.Lookup(k) != nil {
			t.Fatal("unexpected hit")
		}
	})
	if allocs != 0 {
		t.Fatalf("Lookup+update allocates %.1f allocs/op, must be 0", allocs)
	}
}

// TestInsertZeroAllocs guards the promotion path: claiming an empty slot in
// the preallocated table must not allocate, nor may a full-table refusal.
func TestInsertZeroAllocs(t *testing.T) {
	m := New(512)
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		m.Insert(flow.Key{Lo: uint64(i)}, 1) // refused once full: still 0 allocs
		i++
	})
	if allocs != 0 {
		t.Fatalf("Insert allocates %.1f allocs/op, must be 0", allocs)
	}
}

// TestReportAmortizedZeroAllocs guards the per-interval report on a warm
// table: after the first call has grown the sorted scratch, repeated
// reports (and preserving interval transitions) must not allocate.
func TestReportAmortizedZeroAllocs(t *testing.T) {
	m := New(1024)
	for i := 0; i < 900; i++ {
		m.Insert(flow.Key{Lo: uint64(i)}, uint64(i*37%5000))
	}
	// Warm both scratch buffers: one Report and one preserving transition.
	m.Report()
	m.EndInterval(Policy{Preserve: true, Threshold: 0})
	allocs := testing.AllocsPerRun(100, func() {
		if r := m.Report(); len(r) != 900 {
			t.Fatal("short report")
		}
		if kept := m.EndInterval(Policy{Preserve: true, Threshold: 0}); kept != 900 {
			t.Fatal("entries lost")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Report+EndInterval allocates %.1f allocs/op, must be 0", allocs)
	}
}

// TestPrefetchHashesZeroAllocs guards the batch kernels' per-tile prefetch
// call: its address list lives on the stack.
func TestPrefetchHashesZeroAllocs(t *testing.T) {
	m := New(1024)
	hs := make([]uint64, 100) // more than one chunk
	for i := range hs {
		hs[i] = Hash(flow.Key{Lo: uint64(i)})
	}
	if allocs := testing.AllocsPerRun(1000, func() { m.PrefetchHashes(hs) }); allocs != 0 {
		t.Fatalf("PrefetchHashes allocates %.1f allocs/op, must be 0", allocs)
	}
}
