// Command perfbench is the repository's benchmark driver: it builds worlds
// through internal/core's public constructors and runners, times them from
// outside, checks their outputs, and prints one JSON result line.
//
//	perfbench --workload campus|bulk-download|checked-matrix --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the run is profiled and the result carries the per-layer metrics instead
// (CPU self time folded by layer, exported work counters, isolated hot-path
// timings, and the profiler's overhead). README.md in this directory
// documents every metric and which layer moves which end-to-end number.
//
// Everything runs on one goroutine with the serial kernel (Workers 0, no
// core.Sweep), so the numbers measure the simulator, not the scheduler.
// Every host time is the process's CPU time (cpuClock), reported at the
// speed of a fixed reference computation (speed.go); the wall clock only
// decides when a run has measured for --seconds.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state one run shares across its workload: the inputs, the
// output-check tally, the profiler and the metrics gathered so far.
type bench struct {
	seed   uint64
	budget time.Duration
	traced bool

	attempted, failed int
	metrics           map[string]metric

	prof profiler
	// cpu and work split each workload's measured units by whether the
	// profiler was on, for trace.overhead_ratio.
	cpu   [2]time.Duration
	work  [2]float64
	units [2]int
	// traceCounters sums the exported work counters over profiled units, so
	// counts and folded self times cover the same work.
	traceCounters counters
	// traceCPU is the CPU time spent in profiled units; sim.ns_per_event
	// divides it by the events those units fired.
	traceCPU time.Duration

	heap  memWatch
	speed hostSpeed
}

var workloads = map[string]func(*bench){
	"campus":         runCampus,
	"bulk-download":  runBulk,
	"checked-matrix": runMatrix,
}

func main() {
	workload := flag.String("workload", "", "campus, bulk-download or checked-matrix")
	seed := flag.Uint64("seed", 1, "input seed; seed 1 also checks the pinned digests")
	seconds := flag.Int("seconds", 20, "wall-clock seconds one run measures")
	trace := flag.Int("trace", 0, "1 profiles the run and reports per-layer metrics")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload campus|bulk-download|checked-matrix, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	b := &bench{
		seed:    *seed,
		budget:  time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		metrics: make(map[string]metric),
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *trace)
	fmt.Printf("# host nproc=%d gomaxprocs=%d go=%s cpu=%q kernel=serial driver-goroutines=1\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())

	run(b)

	if b.traced {
		if err := b.prof.err; err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: profiler: %v\n", err)
			os.Exit(1)
		}
		b.reportTrace()
		b.reportMicro()
	}
	fmt.Printf("# checks attempted=%d failed=%d fail_ratio=%g\n", b.attempted, b.failed, ratio(float64(b.failed), float64(b.attempted)))
	line, err := json.Marshal(result{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// check records one output check; a failure is reported on stderr and
// counted against the run.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", fmt.Sprintf(format, args...))
	}
}

// set records a metric. End-to-end metrics are recorded only by untraced
// runs and per-layer metrics only by traced ones.
func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// endToEnd gathers the end-to-end metrics of an untraced run. A workload
// measures in rounds of identical composition (see README.md); each rate is
// the median of its per-round values, which keeps a brief stall of the host
// from moving the result. Runs are the workload's individual operations,
// whose CPU times give run_ms_p50 and run_ms_p95.
type endToEnd struct {
	setups  []float64 // seconds of world construction per set-up round
	join    []float64 // simsec/s per round
	steady  []float64 // simsec/s per round
	goodput []float64 // MB/s per round
	runRate []float64 // runs/s per round
	allocs  []float64 // MB allocated per round
	runs    []float64 // ms per run
}

// round is one round's raw totals.
type round struct {
	joinSim, steadySim float64 // simulated seconds
	joinCPU, steadyCPU time.Duration
	goodBytes          float64 // verified payload bytes moved in steadyCPU
	runs               int
	runCPU             time.Duration
}

// add appends a round's rates. A round without a join (campus steady
// blocks) adds no join sample.
func (e *endToEnd) add(r round) {
	if r.joinCPU > 0 {
		e.join = append(e.join, r.joinSim/r.joinCPU.Seconds())
	}
	e.steady = append(e.steady, ratio(r.steadySim, r.steadyCPU.Seconds()))
	e.goodput = append(e.goodput, ratio(r.goodBytes/1e6, r.steadyCPU.Seconds()))
	e.runRate = append(e.runRate, ratio(float64(r.runs), r.runCPU.Seconds()))
}

func (e *endToEnd) run(d time.Duration) {
	e.runs = append(e.runs, float64(d.Nanoseconds())/1e6)
}

// reportEndToEnd records the end-to-end metrics, host times at reference
// speed: times are multiplied by the run's speed scale, rates divided by it.
func (b *bench) reportEndToEnd(e endToEnd) {
	if b.traced {
		return
	}
	s := b.speed.scale()
	b.set("setup_s", median(e.setups)*s, "s")
	b.set("join_simsec_per_cpusec", median(e.join)/s, "simsec/s")
	b.set("steady_simsec_per_cpusec", median(e.steady)/s, "simsec/s")
	b.set("goodput_mb_per_cpusec", median(e.goodput)/s, "MB/s")
	b.set("runs_per_cpusec", median(e.runRate)/s, "1/s")
	b.set("run_ms_p50", quantile(e.runs, 0.50)*s, "ms")
	b.set("run_ms_p95", quantile(e.runs, 0.95)*s, "ms")
	b.set("alloc_mb", median(e.allocs), "MB")
	b.set("peak_heap_mb", float64(b.heap.peak)/1e6, "MB")
	fmt.Printf("# host speed: %v; unscaled setup_s=%g run_ms_p50=%g\n", &b.speed, median(e.setups), quantile(e.runs, 0.50))
	fmt.Printf("# rounds=%d setups=%d runs=%d; highest percentile of run_ms with >=10 samples beyond it: %s\n",
		len(e.steady), len(e.setups), len(e.runs), tailPercentile(len(e.runs)))
}

// traceOn and traceOff bracket profiled units. Both are no-ops in an
// untraced run.
func (b *bench) traceOn() {
	if b.traced {
		b.prof.start()
	}
}

func (b *bench) traceOff() {
	if b.traced {
		b.prof.stop()
	}
}

// unit records one measured unit of work for trace.overhead_ratio, split
// by whether the profiler was on.
func (b *bench) unit(cpu time.Duration, work float64) {
	on := 0
	if b.prof.on {
		on = 1
		b.traceCPU += cpu
	}
	b.cpu[on] += cpu
	b.work[on] += work
	b.units[on]++
}

// tracedShort reports whether a traced run has measured fewer than n
// profiled units, so its workload must keep going.
func (b *bench) tracedShort(n int) bool {
	return b.traced && b.prof.err == nil && b.units[1] < n
}

// snap takes a counter snapshot when the profiler is on (counters are only
// reported by traced runs, for the profiled units).
func (b *bench) snap(read func() counters) counters {
	if !b.prof.on {
		return counters{}
	}
	return read()
}

// count adds the counters a profiled unit moved since before.
func (b *bench) count(before counters, read func() counters) {
	if b.prof.on {
		b.traceCounters.add(read().sub(before))
	}
}

// memWatch tracks the largest HeapInuse seen at the sampling points.
type memWatch struct{ peak uint64 }

func (m *memWatch) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapInuse > m.peak {
		m.peak = ms.HeapInuse
	}
}

// cpuClock is the CPU time this process has used so far: user plus system
// time of all its threads, the garbage collector's included. Every host time
// this driver reports is a difference of two readings of it. The wall clock
// only bounds how long a run lasts: on a shared virtual machine it also runs
// while the hypervisor gives the CPU to another guest (steal time), which
// the process's CPU time leaves out.
func cpuClock() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the nearest-rank quantile of v (v is not modified).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailPercentile names the highest of p50/p90/p95/p99/p99.9 that leaves at
// least ten samples beyond it.
func tailPercentile(n int) string {
	best := "none"
	for _, p := range []struct {
		name string
		q    float64
	}{{"p50", 0.5}, {"p90", 0.9}, {"p95", 0.95}, {"p99", 0.99}, {"p99.9", 0.999}} {
		if float64(n)*(1-p.q) >= 10 {
			best = p.name
		}
	}
	return best
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuModel reads the first "model name" line of /proc/cpuinfo for the host
// fingerprint; "unknown" where that file does not exist.
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
