package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed normalization. The benchmark runs on shared virtual machines
// whose CPU speed drifts by 10–30% over minutes as other guests load the
// host (caches, memory bandwidth, clock boost); the process's CPU time
// (cpuClock) drifts with it. Between measured units, a run times a fixed
// reference computation on its own thread and keeps the median of those
// timings. Every end-to-end host time is then reported at reference speed:
// CPU time × refNominal / that median. A change to the simulator moves the
// reported numbers exactly as it moves CPU time; a change of the host's
// speed moves the reference too and cancels out.
//
// The reference touches nothing of the simulator and allocates nothing. Each
// timing is preceded by an untimed pass, so what ran before (a large heap, a
// cold cache) does not reach it. It is read from the thread's own CPU clock
// with GOMAXPROCS at 1, so no garbage-collector work runs beside it or
// counts towards it.

// refNominal is the reference's CPU time on the 2-vCPU Intel Xeon host the
// benchmark was defined on. It only sets the scale of the reported numbers;
// every comparison between runs divides it out.
const refNominal = 6 * time.Millisecond

// speedEvery is the least wall-clock time between two reference timings.
const speedEvery = 250 * time.Millisecond

// hostSpeed collects one run's reference timings.
type hostSpeed struct {
	samples []float64 // thread CPU seconds per reference timing
	last    time.Time
}

// calibrate times the reference if speedEvery has passed since the last
// timing. A traced run does not: it reports no end-to-end metric, and the
// reference would show up in its profile.
func (b *bench) calibrate() {
	h := &b.speed
	if b.traced || (!h.last.IsZero() && time.Since(h.last) < speedEvery) {
		return
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	refCompute()
	t := threadCPU()
	for i := 0; i < 8; i++ {
		refCompute()
	}
	h.samples = append(h.samples, (threadCPU() - t).Seconds())
	h.last = time.Now()
}

// scale converts this run's CPU time to reference-speed time.
func (h *hostSpeed) scale() float64 {
	if len(h.samples) == 0 {
		panic("perfbench: no reference timing")
	}
	return refNominal.Seconds() / median(h.samples)
}

func (h *hostSpeed) String() string {
	return fmt.Sprintf("reference_ms=%.4f timings=%d scale=%.4f", median(h.samples)*1e3, len(h.samples), h.scale())
}

// threadCPU is the CPU time of the calling OS thread
// (CLOCK_THREAD_CPUTIME_ID); the caller locks itself to that thread.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno)
	}
	return time.Duration(ts.Nano())
}

// The reference's working set: 32 KiB of floats to sort, a 4096-entry map
// and 16 KiB to hash. It stays in the core's own caches: a larger one (a
// 1 MiB pointer chase was tried) made the reference vary with whatever
// shared the core's second-level cache, more than the simulator does.
var (
	refFloats = make([]float64, 4096)
	refMap    = make(map[uint64]uint64, 4096)
	refBytes  = make([]byte, 16<<10)
	refSink   uint64
)

// xorshift advances a xorshift64 generator.
func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// refCompute is one round of the reference: a sort, map updates,
// math.Exp/Log10 and SHA-256.
func refCompute() {
	x := uint64(88172645463325252)
	for i := range refFloats {
		x = xorshift(x)
		refFloats[i] = float64(x>>11) / (1 << 53)
	}
	slices.Sort(refFloats)
	clear(refMap)
	for i := 0; i < 4096; i++ {
		x = xorshift(x)
		refMap[x&0xffff] += uint64(i)
	}
	s := 0.0
	for _, f := range refFloats {
		s += math.Exp(-f) + math.Log10(1+f)
	}
	h := sha256.Sum256(refBytes)
	refSink += math.Float64bits(s) + uint64(h[0]) + uint64(len(refMap))
}
