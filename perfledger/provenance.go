package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"repro/internal/hw"
)

// printProvenance prints the line that stamps a result with its host class
// and provenance. Results are comparable only within one host class: the
// same nproc, GOMAXPROCS, CPU model and L2 size.
func printProvenance(o options, config string) {
	topo := hw.Probe()
	sum := sha256.Sum256([]byte(config))
	p := struct {
		HostClass    string  `json:"host_class"`
		NProc        int     `json:"nproc"`
		GOMAXPROCS   int     `json:"gomaxprocs"`
		CPUModel     string  `json:"cpu_model"`
		L2Bytes      int     `json:"l2_bytes"`
		L2Measured   bool    `json:"l2_measured"`
		GoVersion    string  `json:"go_version"`
		Commit       string  `json:"commit"`
		SourceDigest string  `json:"source_digest"`
		Workload     string  `json:"workload"`
		Seed         int64   `json:"seed"`
		Seconds      float64 `json:"seconds"`
		Traced       bool    `json:"traced"`
		ConfigDigest string  `json:"config_digest"`
	}{
		NProc:        topo.NumCPU,
		GOMAXPROCS:   topo.GOMAXPROCS,
		CPUModel:     cpuModel(),
		L2Bytes:      topo.L2Bytes,
		L2Measured:   topo.L2Measured,
		GoVersion:    runtime.Version(),
		Commit:       commit(),
		SourceDigest: sourceDigest("."),
		Workload:     o.workload,
		Seed:         o.seed,
		Seconds:      o.seconds,
		Traced:       o.traced,
		ConfigDigest: hex.EncodeToString(sum[:8]),
	}
	p.HostClass = fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q l2=%d", p.NProc, p.GOMAXPROCS, p.CPUModel, p.L2Bytes)
	b, _ := json.Marshal(p)
	fmt.Printf("provenance %s\n", b)
	fmt.Printf("config %s\n", config)
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	s := bufio.NewScanner(f)
	for s.Scan() {
		if k, v, ok := strings.Cut(s.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit returns the VCS revision stamped into the binary, or "none" when
// it was built outside a git checkout.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "none"
}

// sourceDigest hashes the program's Go sources and module file under root
// (the benchmark's own directory and build outputs excluded), so results
// from a checkout without git history still name the code they measured.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			switch d.Name() {
			case "perfledger", ".bench_build", ".git":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		io.WriteString(h, path)
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
