// Command perfledger is the repository's steady-state benchmark. It runs
// one named workload against the measurement device for a fixed window and
// prints every end-to-end metric with its unit, a correctness verdict, and
// (with -trace 1) a per-layer ledger whose parts are reconciled against
// wall time.
//
// Usage, from the root of a checkout:
//
//	bash perfledger/run.sh --workload mag-file-device --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 312, "failed": 0, "metrics": {...}}
//
// Everything above it is the human-readable report: provenance, the metric
// table, and for traced runs the ledger.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// dir is the scratch directory for the export spool and the collector
	// journal; each run uses (and removes) a private subdirectory.
	dir string
}

// workload is one named benchmark scenario; README.md gives the reason
// for each.
type workload struct {
	name string
	run  func(o options) (*outcome, error)
}

var workloads = []workload{
	{"mag-file-device", runFileDevice},
	{"mag-sharded-dram", runShardedDRAM},
	{"cos-export-paced", runExportPaced},
}

func main() {
	var (
		o     options
		trace int
	)
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(names, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer ledger instead of the end-to-end metrics")
	flag.StringVar(&o.dir, "dir", ".bench_build", "scratch directory for the export spool and collector journal")
	flag.Parse()
	o.traced = trace == 1
	if err := mainErr(o, trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfledger:", err)
		os.Exit(1)
	}
}

func mainErr(o options, trace int) error {
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if !(o.seconds > 0) {
		return fmt.Errorf("-seconds must be positive, got %v", o.seconds)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	dir, err := os.MkdirTemp(o.dir, "run-")
	if err != nil {
		return fmt.Errorf("scratch directory: %w", err)
	}
	// Flushing the page cache before the run, and again after its journals
	// are deleted, keeps one run's disk writeback and block discards out of
	// the next run's fsync latencies.
	syscall.Sync()
	defer func() {
		os.RemoveAll(dir)
		syscall.Sync()
	}()
	o.dir, err = filepath.Abs(dir)
	if err != nil {
		return err
	}

	out, err := w.run(o)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	printProvenance(o, out.config)
	out.metrics.print()
	for _, line := range out.notes {
		fmt.Println(line)
	}
	return out.emit()
}

// outcome is one run's verdict and metrics.
type outcome struct {
	// attempted and failed count interval reports: a report fails when the
	// oracle rejects it, when it is lost or duplicated on the way to the
	// collector, or when it differs from the per-packet reference.
	attempted, failed int
	// correct also requires the oracle's own negative self-test to have
	// caught every injected fault.
	correct bool
	metrics metricSet
	// config is the workload configuration, digested into the provenance.
	config string
	// notes are extra report lines (ledger, self-test, reconciliation).
	notes []string
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// emit prints the result object as the last line of standard output.
func (o *outcome) emit() error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := make(map[string]value, len(o.metrics.order))
	for _, name := range o.metrics.order {
		v := o.metrics.vals[name]
		if math.IsNaN(v.value) || math.IsInf(v.value, 0) {
			return fmt.Errorf("metric %s is %v", name, v.value)
		}
		m[name] = value{v.value, v.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.correct, o.attempted, o.failed, m})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// metricSet is an insertion-ordered set of named metrics.
type metricSet struct {
	order []string
	vals  map[string]metricValue
}

type metricValue struct {
	value float64
	unit  string
}

func (s *metricSet) add(name string, value float64, unit string) {
	if s.vals == nil {
		s.vals = make(map[string]metricValue)
	}
	if _, dup := s.vals[name]; !dup {
		s.order = append(s.order, name)
	}
	s.vals[name] = metricValue{value, unit}
}

func (s *metricSet) print() {
	for _, name := range s.order {
		v := s.vals[name]
		fmt.Printf("  %-32s %14.6g %s\n", name, v.value, v.unit)
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// mean returns the arithmetic mean of xs (0 for an empty sample).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
