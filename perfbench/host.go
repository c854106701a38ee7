package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// now is the benchmark's only wall-clock read.
func now() time.Time {
	return time.Now() //hls:clockok the benchmark measures wall time; nothing it reads reaches a synthesis result
}

// sinceMs returns the milliseconds elapsed since t.
func sinceMs(t time.Time) float64 {
	return float64(now().Sub(t)) / float64(time.Millisecond)
}

// sample is the process state read at each edge of a timed loop; the
// loop's metrics are differences of two samples.
type sample struct {
	wall     time.Time
	cpu      time.Duration // process user+sys, every thread (GC workers included)
	alloc    uint64        // runtime.MemStats.TotalAlloc
	gcCPU    float64       // runtime/metrics GC CPU seconds
	allCPU   float64       // runtime/metrics total CPU seconds available to Go
	gcCycles uint64
	steal    uint64 // /proc/stat steal ticks, every CPU
	busy     uint64 // /proc/stat non-idle ticks, every CPU
}

var runtimeMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func takeSample() (sample, error) {
	var s sample
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return s, fmt.Errorf("getrusage: %w", err)
	}
	s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.alloc = ms.TotalAlloc
	rm := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		rm[i].Name = name
	}
	metrics.Read(rm)
	if rm[0].Value.Kind() != metrics.KindFloat64 || rm[1].Value.Kind() != metrics.KindFloat64 ||
		rm[2].Value.Kind() != metrics.KindUint64 {
		return s, fmt.Errorf("runtime/metrics: GC CPU metrics unsupported by %s", runtime.Version())
	}
	s.gcCPU = rm[0].Value.Float64()
	s.allCPU = rm[1].Value.Float64()
	s.gcCycles = rm[2].Value.Uint64()
	var err error
	if s.steal, s.busy, err = procStat(); err != nil {
		return s, err
	}
	s.wall = now()
	return s, nil
}

// procStat reads the aggregate cpu line of /proc/stat and returns the
// steal ticks and the non-idle ticks (user, nice, system, irq, softirq
// and steal; guest time is already inside user).
func procStat() (steal, busy uint64, err error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		var v [8]uint64
		for i := range v {
			if v[i], err = strconv.ParseUint(fields[i+1], 10, 64); err != nil {
				return 0, 0, fmt.Errorf("/proc/stat: %w", err)
			}
		}
		user, nice, system, irq, softirq, st := v[0], v[1], v[2], v[5], v[6], v[7]
		return st, user + nice + system + irq + softirq + st, nil
	}
	if err := sc.Err(); err != nil {
		return 0, 0, fmt.Errorf("/proc/stat: %w", err)
	}
	return 0, 0, fmt.Errorf("/proc/stat: no aggregate cpu line")
}

// threadCPUMs is the calling thread's CPU time in milliseconds. With
// paravirtual steal accounting, which the reference host's kernel has,
// it leaves out the time the hypervisor stole.
func threadCPUMs() float64 {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_THREAD_CPUTIME_ID): %v", errno))
	}
	return float64(ts.Nano()) / float64(time.Millisecond)
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports kilobytes
}

// delta is what the process spent between two samples.
type delta struct {
	wallS    float64
	cpuMs    float64
	alloc    uint64
	gcCPU    float64
	allCPU   float64
	gcCycles uint64
	steal    uint64
	busy     uint64
}

func diffSamples(a, b sample) delta {
	return delta{
		wallS:    b.wall.Sub(a.wall).Seconds(),
		cpuMs:    float64(b.cpu-a.cpu) / float64(time.Millisecond),
		alloc:    b.alloc - a.alloc,
		gcCPU:    b.gcCPU - a.gcCPU,
		allCPU:   b.allCPU - a.allCPU,
		gcCycles: b.gcCycles - a.gcCycles,
		steal:    b.steal - a.steal,
		busy:     b.busy - a.busy,
	}
}

// stealShare is the share of the VM's non-idle time that the hypervisor
// stole.
func (d delta) stealShare() float64 {
	if d.busy == 0 {
		return 0
	}
	return float64(d.steal) / float64(d.busy)
}
