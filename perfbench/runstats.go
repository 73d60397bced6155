package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
)

// rtSnap is the Go runtime's own accounting at one instant: allocation
// volume from MemStats and GC CPU time from runtime/metrics.
type rtSnap struct {
	allocBytes, allocObjects, pauseNs uint64
	gcCycles                          uint32
	gcCPU, totalCPU                   float64
}

var cpuSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := make([]metrics.Sample, len(cpuSamples))
	for i, name := range cpuSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	s := rtSnap{
		allocBytes:   ms.TotalAlloc,
		allocObjects: ms.Mallocs,
		pauseNs:      ms.PauseTotalNs,
		gcCycles:     ms.NumGC,
	}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = samples[1].Value.Float64()
	}
	return s
}

// addRuntimeDelta records the runtime cost of one phase (setup or run)
// under runtime.<phase>.* in layer.
func addRuntimeDelta(layer map[string]float64, phase string, before, after rtSnap) {
	p := "runtime." + phase + "."
	layer[p+"alloc_mb"] = float64(after.allocBytes-before.allocBytes) / 1e6
	layer[p+"alloc_objects"] = float64(after.allocObjects - before.allocObjects)
	layer[p+"gc_cycles"] = float64(after.gcCycles - before.gcCycles)
	layer[p+"gc_pause_ms"] = float64(after.pauseNs-before.pauseNs) / 1e6
	layer[p+"gc_cpu_share"] = ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	return parseVmHWM(f)
}

func parseVmHWM(r io.Reader) (float64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[2] != "kB" {
			return 0, fmt.Errorf("peak rss: malformed %q", line)
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("peak rss: %w", err)
		}
		return kb * 1024 / 1e6, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}
