package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"deepbat/internal/stats"
)

// pct returns the p-th percentile of xs (0 for an empty sample).
func pct(xs []float64, p float64) float64 {
	v, err := stats.Percentile(xs, p)
	if err != nil {
		return 0
	}
	return v
}

func median(xs []float64) float64 { return pct(xs, 50) }

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// maxRSSMB returns the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// goStats is a snapshot of the Go runtime counters the per-layer report
// differences.
type goStats struct {
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcPauseNs  uint64
}

func readGoStats() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goStats{allocBytes: ms.TotalAlloc, mallocs: ms.Mallocs, gcCycles: ms.NumGC, gcPauseNs: ms.PauseTotalNs}
}

// since records the runtime counters accumulated after s into o.
func (s goStats) since(o *outcome) {
	e := readGoStats()
	o.set("go.alloc_mb", "MB", float64(e.allocBytes-s.allocBytes)/(1<<20), 0)
	o.set("go.gc_cycles", "count", float64(e.gcCycles-s.gcCycles), 0)
	o.set("go.gc_pause_ms", "ms", float64(e.gcPauseNs-s.gcPauseNs)/1e6, 0)
}

// provenance describes the machine and build a result was measured on, so
// ratios are only ever taken against a same-machine baseline.
func provenance() map[string]any {
	p := map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"cpu_model":  cpuModel(),
		"git_commit": "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p["git_commit"] = s.Value
			case "vcs.modified":
				p["git_modified"] = s.Value
			}
		}
	}
	return p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
