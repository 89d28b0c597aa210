//go:build !race

package trace

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/flow"
)

// nopConsumer is a BatchConsumer that does nothing.
type nopConsumer struct{}

func (nopConsumer) Packet(*flow.Packet)       {}
func (nopConsumer) PacketBatch([]flow.Packet) {}
func (nopConsumer) EndInterval(int)           {}

// TestReplayReaderArenaAllocs guards the source layer's memory: decoding a
// compact trace with a fresh Reader and replaying it allocates the Reader
// (its bufio window included) and Replay's one batch buffer, and nothing
// per batch or per interval. Replaying the same packets as one interval
// and as eight must cost the same allocations and bytes, within 16
// allocations and 12.6 KB (the packet-at-a-time decoder this one replaced
// took 15 and 12,568 B; the window decoder's reader struct adds its window,
// offset and kept read error, 48 B).
func TestReplayReaderArenaAllocs(t *testing.T) {
	const (
		maxAllocs = 16
		maxBytes  = 12616
		packets   = 8192
		runs      = 50
	)
	measure := func(intervals int) (allocs float64, bytesPerRun uint64) {
		m := Meta{Name: "allocs", LinkBytesPerSec: 1e6, Interval: time.Second, Intervals: intervals, HasAS: true}
		ivs := make([]int, intervals)
		for i := range ivs {
			ivs[i] = i
		}
		enc := encodeTrace(t, m, randomPackets(rand.New(rand.NewSource(1)), m, ivs, packets/intervals))
		replay := func() {
			r, err := NewReader(bytes.NewReader(enc))
			if err != nil {
				t.Fatal(err)
			}
			if n, err := Replay(r, nopConsumer{}); err != nil || n != packets {
				t.Fatalf("replayed %d packets, error %v", n, err)
			}
		}
		allocs = testing.AllocsPerRun(runs, replay)
		// The least of three windows: the runtime's own occasional
		// allocations land in one window, not in all three.
		bytesPerRun = ^uint64(0)
		for w := 0; w < 3; w++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				replay()
			}
			runtime.ReadMemStats(&after)
			bytesPerRun = min(bytesPerRun, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		return allocs, bytesPerRun
	}
	allocs1, bytes1 := measure(1)
	allocs8, bytes8 := measure(8)
	t.Logf("per Replay with NewReader: 1 interval %.0f allocs, %d B; 8 intervals %.0f allocs, %d B", allocs1, bytes1, allocs8, bytes8)
	if allocs1 != allocs8 || bytes1 != bytes8 {
		t.Errorf("intervals cost memory: 1 interval %.0f allocs, %d B; 8 intervals %.0f allocs, %d B", allocs1, bytes1, allocs8, bytes8)
	}
	if allocs1 > maxAllocs || bytes1 > maxBytes {
		t.Errorf("Replay with NewReader allocates %.0f times, %d B; budget %d, %d B", allocs1, bytes1, maxAllocs, maxBytes)
	}
}
