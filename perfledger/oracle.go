package main

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/flow"
)

// oracle checks interval reports against the exact per-interval truth and
// accumulates the large-flow error. One oracle serves one pass; reports are
// numbered by their position in the pass (warm-up included), and report n
// covers interval n mod the cycle length.
type oracle struct {
	truth []map[flow.Key]uint64
	// large[i] lists interval i's flows at or above min(T, mustReport),
	// largest first.
	large [][]flowBytes
	// T is the large-flow threshold the error is measured against.
	T uint64
	// mustReport, when non-zero, is the threshold of a parallel filter with
	// zero false negatives: every flow at or above it must be reported in
	// an interval in which the flow memory refused no entry.
	mustReport uint64

	// seen is the reusable per-report index (key → reported bytes).
	seen map[flow.Key]uint64
	// failedAt[n] records whether report n failed any check.
	failedAt []bool
	errSum   float64
	errFlows int
	first    string
}

type flowBytes struct {
	key   flow.Key
	bytes uint64
}

func newOracle(in *inputs, T, mustReport uint64) *oracle {
	o := &oracle{truth: in.truth, T: T, mustReport: mustReport, seen: make(map[flow.Key]uint64)}
	floor := T
	if mustReport > 0 && mustReport < floor {
		floor = mustReport
	}
	for _, m := range in.truth {
		var l []flowBytes
		for k, b := range m {
			if b >= floor {
				l = append(l, flowBytes{k, b})
			}
		}
		sort.Slice(l, func(i, j int) bool { return l[i].bytes > l[j].bytes })
		o.large = append(o.large, l)
	}
	return o
}

// check validates report n. rejected says whether the flow memory refused
// any entry during the interval (which voids the zero-false-negative
// guarantee).
//   - every estimate is at most the flow's true bytes (lower bound);
//   - no flow is reported twice;
//   - with mustReport set and nothing rejected, every flow at or above it
//     is reported.
//
// The large-flow error accumulates over timed reports only: the window
// replays whole cycles, so the error does not depend on how many cycles a
// run completes.
func (o *oracle) check(n int, ests []core.Estimate, rejected, timed bool) {
	iv := n % len(o.truth)
	truth := o.truth[iv]
	clear(o.seen)
	ok := true
	for _, e := range ests {
		if _, dup := o.seen[e.Key]; dup {
			ok = o.fail(n, "flow %x reported twice", e.Key)
		}
		o.seen[e.Key] = e.Bytes
		if t := truth[e.Key]; e.Bytes > t {
			ok = o.fail(n, "flow %x estimated %d bytes, true %d", e.Key, e.Bytes, t)
		}
	}
	for _, f := range o.large[iv] {
		est, reported := o.seen[f.key]
		if timed && f.bytes >= o.T {
			o.errSum += float64(f.bytes-min(est, f.bytes)) / float64(o.T)
			o.errFlows++
		}
		if o.mustReport > 0 && !rejected && f.bytes >= o.mustReport && !reported {
			ok = o.fail(n, "flow %x with %d bytes (>= %d) not reported", f.key, f.bytes, o.mustReport)
		}
	}
	o.mark(n, !ok)
}

// mark records report n's verdict; a report already marked failed stays
// failed.
func (o *oracle) mark(n int, failed bool) {
	for len(o.failedAt) <= n {
		o.failedAt = append(o.failedAt, false)
	}
	o.failedAt[n] = o.failedAt[n] || failed
}

func (o *oracle) fail(n int, format string, args ...any) bool {
	if o.first == "" {
		o.first = fmt.Sprintf("report %d: ", n) + fmt.Sprintf(format, args...)
	}
	return false
}

// matchReference marks every report whose digest differs from the
// reference's digest for the same position.
func (o *oracle) matchReference(got, want []uint64) {
	for n, d := range got {
		if n >= len(want) || d != want[n] {
			o.fail(n, "report differs from the per-packet reference")
			o.mark(n, true)
		}
	}
}

// tally returns the number of reports checked and failed.
func (o *oracle) tally() (attempted, failed int) {
	for _, f := range o.failedAt {
		if f {
			failed++
		}
	}
	return len(o.failedAt), failed
}

// largeFlowErrPct is the mean error on flows at or above T, as a
// percentage of T, over the timed reports.
func (o *oracle) largeFlowErrPct() float64 {
	return 100 * ratio(o.errSum, float64(o.errFlows))
}

// digest is an order-sensitive FNV-1a hash of a report's estimates: two
// runs produced the same report exactly when their digests agree.
func digest(ests []core.Estimate) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(uint64(len(ests)))
	for _, e := range ests {
		mix(e.Key.Hi)
		mix(e.Key.Lo)
		mix(e.Bytes)
		if e.Exact {
			mix(1)
		}
	}
	return h
}

// sameDigests reports whether a and b agree on their common prefix, and
// how long that prefix is.
func sameDigests(a, b []uint64) (bool, int) {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false, n
		}
	}
	return true, n
}
