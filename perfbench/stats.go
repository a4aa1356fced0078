package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }

// durMillis converts durations to milliseconds.
func durMillis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = millis(d)
	}
	return out
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reports the process's peak resident set (VmHWM) in MiB, falling
// back to the Go runtime's view of memory obtained from the OS where /proc
// is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// goStats is a Go runtime snapshot for per-layer GC and allocation deltas.
type goStats struct {
	numGC      uint32
	pauseNs    uint64
	totalAlloc uint64
	mallocs    uint64
}

func readGoStats() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goStats{numGC: ms.NumGC, pauseNs: ms.PauseTotalNs, totalAlloc: ms.TotalAlloc, mallocs: ms.Mallocs}
}

// goDelta is the runtime work done between two snapshots.
type goDelta struct {
	gcCycles float64
	pauseMs  float64
	allocMB  float64
	mallocs  float64
	bytes    float64
}

func (a goStats) to(b goStats) goDelta {
	return goDelta{
		gcCycles: float64(b.numGC - a.numGC),
		pauseMs:  float64(b.pauseNs-a.pauseNs) / 1e6,
		allocMB:  float64(b.totalAlloc-a.totalAlloc) / (1 << 20),
		mallocs:  float64(b.mallocs - a.mallocs),
		bytes:    float64(b.totalAlloc - a.totalAlloc),
	}
}
