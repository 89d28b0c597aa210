package traffic

// Differential tests for the fused batch kernel. Three drive modes must be
// observably equivalent — identical interval reports AND identical memory
// accounting totals:
//
//   - per-packet: Process on every packet (the reference semantics),
//   - fused:      ProcessBatch, the tiled hash→prefetch→update kernel,
//   - fused-hash: ProcessBatchHash, the same kernel fed the flow memory
//     probe hashes a sharded producer forwards (KeyHash of each key).
//
// The grid covers every hash family (tabulation, multiplyshift, doublehash —
// the last is the one-base-hash deriver path whose hash reuse is the
// riskiest part of the fusion), batch sizes {1, 7, 64, 1024} including
// trailing partial batches (interval length 4097 is coprime to all of them),
// and interval boundaries with entry preservation, which exercises the
// rehash-free flow memory rebuild between intervals. A DRAM-sized case runs
// the same comparison with counter and flow memory tables far past any
// cache, where most prefetch hints the kernel issues point at cold lines.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/memmodel"
)

// fusedDiffPackets synthesizes a deterministic Zipf-ish workload over
// flows flows: a few heavy flows that cross the threshold (exercising
// promotion and preservation) over a long tail that stays in the filter
// stages.
func fusedDiffPackets(intervals, perInterval int, flows uint64) ([][]FlowKey, [][]uint32) {
	rng := rand.New(rand.NewSource(42))
	zipf := rand.NewZipf(rng, 1.25, 1, flows)
	keys := make([][]FlowKey, intervals)
	sizes := make([][]uint32, intervals)
	for iv := 0; iv < intervals; iv++ {
		keys[iv] = make([]FlowKey, perInterval)
		sizes[iv] = make([]uint32, perInterval)
		for i := range keys[iv] {
			keys[iv][i] = FlowKey{Hi: 7, Lo: zipf.Uint64()}
			sizes[iv][i] = 40 + uint32(rng.Intn(1460))
		}
	}
	return keys, sizes
}

// driveFused runs one algorithm instance over the workload in the given
// mode and batch size, closing every interval, and returns the per-interval
// estimates plus the final memory accounting totals.
func driveFused(t *testing.T, alg Algorithm, mode string, batchSize int, keys [][]FlowKey, sizes [][]uint32) ([][]Estimate, memmodel.Counter) {
	t.Helper()
	var reports [][]Estimate
	for iv := range keys {
		k, s := keys[iv], sizes[iv]
		switch mode {
		case "per-packet":
			for i := range k {
				alg.Process(k[i], s[i])
			}
		case "fused":
			b, ok := alg.(BatchAlgorithm)
			if !ok {
				t.Fatalf("%s has no batch kernel", alg.Name())
			}
			for i := 0; i < len(k); i += batchSize {
				end := min(i+batchSize, len(k))
				b.ProcessBatch(k[i:end], s[i:end])
			}
		case "fused-hash":
			b, ok := alg.(core.HashBatchAlgorithm)
			if !ok {
				t.Fatalf("%s has no hash-forwarding batch kernel", alg.Name())
			}
			hashes := make([]uint64, len(k))
			for i := range k {
				hashes[i] = b.KeyHash(k[i])
			}
			for i := 0; i < len(k); i += batchSize {
				end := min(i+batchSize, len(k))
				b.ProcessBatchHash(hashes[i:end], k[i:end], s[i:end])
			}
		default:
			t.Fatalf("unknown mode %q", mode)
		}
		reports = append(reports, alg.EndInterval())
	}
	return reports, *alg.Mem()
}

// requireSameEstimates compares two runs' per-interval estimates exactly.
func requireSameEstimates(t *testing.T, label string, ref, got [][]Estimate, refMem, gotMem memmodel.Counter) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: %d intervals vs %d", label, len(ref), len(got))
	}
	for iv := range ref {
		if len(ref[iv]) != len(got[iv]) {
			t.Fatalf("%s interval %d: %d estimates vs %d", label, iv, len(ref[iv]), len(got[iv]))
		}
		for j := range ref[iv] {
			if ref[iv][j] != got[iv][j] {
				t.Fatalf("%s interval %d estimate %d: %+v vs %+v",
					label, iv, j, ref[iv][j], got[iv][j])
			}
		}
	}
	if refMem != gotMem {
		t.Fatalf("%s: memory accounting diverged: %+v vs %+v", label, refMem, gotMem)
	}
}

var fusedDiffBatchSizes = []int{1, 7, 64, 1024}

var fusedModes = []string{"fused", "fused-hash"}

// TestFusedKernelDifferentialMultistage pits the fused multistage kernel
// against the per-packet path for every hash family.
func TestFusedKernelDifferentialMultistage(t *testing.T) {
	keys, sizes := fusedDiffPackets(3, 4097, 20000)
	for _, hash := range []string{"tabulation", "multiplyshift", "doublehash"} {
		mk := func() Algorithm {
			alg, err := NewMultistageFilter(MultistageConfig{
				Stages: 4, Buckets: 512, Entries: 256, Threshold: 200_000,
				Conservative: true, Shield: true, Preserve: true,
				Hash: hash, Seed: 9,
			})
			if err != nil {
				t.Fatal(err)
			}
			return alg
		}
		ref, refMem := driveFused(t, mk(), "per-packet", 0, keys, sizes)
		for _, bs := range fusedDiffBatchSizes {
			for _, mode := range fusedModes {
				label := fmt.Sprintf("multistage/%s %s batch=%d", hash, mode, bs)
				got, gotMem := driveFused(t, mk(), mode, bs, keys, sizes)
				requireSameEstimates(t, label, ref, got, refMem, gotMem)
			}
		}
	}
}

// TestFusedKernelDifferentialSampleAndHold does the same for sample and
// hold, whose fused kernel must additionally consume the sampling RNG in
// exactly the per-packet order.
func TestFusedKernelDifferentialSampleAndHold(t *testing.T) {
	keys, sizes := fusedDiffPackets(3, 4097, 20000)
	for _, cfg := range []SampleAndHoldConfig{
		{Entries: 256, Threshold: 200_000, Oversampling: 4, Seed: 9},
		{Entries: 256, Threshold: 200_000, Oversampling: 4.7, Seed: 9, Preserve: true, EarlyRemoval: 0.15},
	} {
		mk := func() Algorithm {
			alg, err := NewSampleAndHold(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return alg
		}
		ref, refMem := driveFused(t, mk(), "per-packet", 0, keys, sizes)
		for _, bs := range fusedDiffBatchSizes {
			for _, mode := range fusedModes {
				label := fmt.Sprintf("sample-and-hold preserve=%v %s batch=%d", cfg.Preserve, mode, bs)
				got, gotMem := driveFused(t, mk(), mode, bs, keys, sizes)
				requireSameEstimates(t, label, ref, got, refMem, gotMem)
			}
		}
	}
}

// TestFusedKernelDifferentialDRAM runs the multistage comparison at a
// DRAM-sized table: 4 stages of 2^20 counters (32 MiB) and 2^15 flow memory
// entries, over three intervals of about 200 batches each drawn from a
// million flows, so the kernel's lookahead tiles prefetch lines that are
// not in any cache. Several hundred flows pass per interval and are
// preserved into the next.
func TestFusedKernelDifferentialDRAM(t *testing.T) {
	keys, sizes := fusedDiffPackets(3, 50_000, 1<<20)
	for _, hash := range []string{"doublehash", "tabulation"} {
		mk := func() Algorithm {
			alg, err := NewMultistageFilter(MultistageConfig{
				Stages: 4, Buckets: 1 << 20, Entries: 1 << 15, Threshold: 3_000,
				Conservative: true, Shield: true, Preserve: true,
				Hash: hash, Seed: 9,
			})
			if err != nil {
				t.Fatal(err)
			}
			return alg
		}
		ref, refMem := driveFused(t, mk(), "per-packet", 0, keys, sizes)
		if len(ref[len(ref)-1]) == 0 {
			t.Fatalf("%s: no flow passed the filter; the workload exercises nothing", hash)
		}
		for _, mode := range fusedModes {
			label := fmt.Sprintf("multistage/%s DRAM %s batch=256", hash, mode)
			got, gotMem := driveFused(t, mk(), mode, 256, keys, sizes)
			requireSameEstimates(t, label, ref, got, refMem, gotMem)
		}
	}
}
