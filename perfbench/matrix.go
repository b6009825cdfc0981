package main

import (
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
)

// The checked-matrix workload: what tier-1, CI chaos-smoke and
// `roguesim -check` run — many small worlds with invariant checks on. One
// sweep runs every matrix point on the sweep's seed; sweeps walk the seeds
// upward from --seed.
const (
	// matrixJoin is the association phase the set-up world of each point
	// runs, the same first phase every single-victim scenario starts with.
	matrixJoin = 10 * sim.Second
	// matrixMinSweeps is the least a run measures: a traced run needs one
	// unprofiled and one profiled sweep.
	matrixMinSweeps = 2
)

// matrixPoint is one scenario, optionally with a builtin fault schedule
// overriding its own.
type matrixPoint struct {
	scenario, faults string
}

func (p matrixPoint) String() string {
	if p.faults == "" {
		return p.scenario
	}
	return p.scenario + "+" + p.faults
}

// matrixPoints is every single-victim scenario (those with a Config; the
// campus scenarios have none) plus every builtin fault schedule, on the
// mesh world for relay-* schedules (they need relay hosts) and on the vpn
// world otherwise.
func matrixPoints() []matrixPoint {
	var pts []matrixPoint
	for _, name := range core.ScenarioNames() {
		if _, err := core.ScenarioConfig(name, 1); err == nil {
			pts = append(pts, matrixPoint{scenario: name})
		}
	}
	for _, f := range faults.BuiltinNames() {
		world := "vpn"
		if strings.HasPrefix(f, "relay-") {
			world = "mesh"
		}
		pts = append(pts, matrixPoint{scenario: world, faults: f})
	}
	return pts
}

// verdict is the matrix output check: every fault point converges, the
// attack compromises, detect raises an alert, and the rest download clean.
func (p matrixPoint) verdict(o *core.ScenarioOutcome) bool {
	switch {
	case p.faults != "" || strings.HasPrefix(p.scenario, "chaos-"):
		return o.Converged
	case p.scenario == "attack":
		return o.Download.Compromised()
	case p.scenario == "detect":
		return len(o.Alerts) >= 1
	default:
		return o.Download.Clean()
	}
}

func (p matrixPoint) run(seed uint64) (*core.ScenarioOutcome, time.Duration) {
	t := cpuClock()
	o, err := core.RunScenarioOpts(p.scenario, seed, core.ScenarioOpts{Checks: true, Faults: p.faults})
	if err != nil {
		panic(err)
	}
	return o, cpuClock() - t
}

func runMatrix(b *bench) {
	points := matrixPoints()
	if b.seed == pinSeed {
		b.check(len(points) == len(pinMatrix), "matrix: %d points, %d pinned digests", len(points), len(pinMatrix))
	}
	// The first point of the first sweep runs once unmeasured; its measured
	// twin must replay it exactly.
	want, _ := points[0].run(b.seed)
	wantCounters := worldCounters(want.World, want.FramesSeen)
	want.World = nil
	runtime.GC()

	var e endToEnd
	start := time.Now()
	for sweep := 0; sweep < matrixMinSweeps || time.Since(start) < b.budget ||
		b.tracedShort(1); sweep++ {
		// A traced run profiles the sweeps of the second half of its budget.
		if sweep > 0 && time.Since(start) >= b.budget/2 {
			b.traceOn()
		}
		seed := b.seed + uint64(sweep)
		alloc0 := totalAlloc()
		var setup time.Duration
		var rd round
		sweepStart := cpuClock()
		for i, p := range points {
			// Set-up and association phase, on a world built the way the
			// scenario runner builds it.
			cfg, err := core.ScenarioConfig(p.scenario, seed)
			if err != nil {
				panic(err)
			}
			cfg.Checks = true
			if p.faults != "" {
				cfg.Faults = p.faults
			}
			t := cpuClock()
			w := core.NewWorld(cfg)
			setup += cpuClock() - t
			t = cpuClock()
			w.VictimConnect()
			w.Run(matrixJoin)
			rd.joinCPU += cpuClock() - t
			rd.joinSim += matrixJoin.Seconds()
			if b.prof.on {
				b.traceCounters.add(worldCounters(w, 0))
			}

			// The checked run itself.
			o, d := p.run(seed)
			c := worldCounters(o.World, o.FramesSeen)
			b.check(p.verdict(o), "matrix %s seed %d: converged=%v compromised=%v clean=%v alerts=%d err=%v",
				p, seed, o.Converged, o.Download.Compromised(), o.Download.Clean(), len(o.Alerts), o.Download.Err)
			if sweep == 0 {
				if i == 0 {
					b.check(o.Digest == want.Digest && c == wantCounters,
						"matrix %s seed %d: replay diverged (digest %016x vs %016x)", p, seed, o.Digest, want.Digest)
				}
				if b.seed == pinSeed && i < len(pinMatrix) {
					b.check(o.Digest == pinMatrix[i], "matrix %s seed %d: digest %016x, pinned %016x", p, seed, o.Digest, pinMatrix[i])
				}
				printDigest("matrix", p.String(), seed, o.Digest)
			}
			e.run(d)
			rd.runs++
			rd.runCPU += d
			rd.steadyCPU += d
			rd.steadySim += o.World.Kernel.Now().Seconds()
			if o.Download.Err == nil && o.Download.MD5OK {
				rd.goodBytes += float64(len(o.Download.Body))
			}
			if b.prof.on {
				b.traceCounters.add(c)
			}
			b.heap.sample()
		}
		b.unit(cpuClock()-sweepStart, 1)
		b.calibrate()
		e.add(rd)
		e.setups = append(e.setups, setup.Seconds())
		e.allocs = append(e.allocs, float64(totalAlloc()-alloc0)/1e6)
	}
	b.traceOff()
	b.reportEndToEnd(e)
}
