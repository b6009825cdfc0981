package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/ethernet"
	"repro/internal/sim"
)

// The campus workload: one 64-AP/1024-station campus with the SSID-clone
// rogue, checks off. A join phase runs from t=0 until every station has
// associated; a steady phase of beacons and light/bursty traffic fills the
// rest of the budget. Both advance in fixed slices of simulated time.
const (
	campusAPs   = 64
	campusSTAs  = 1024
	campusSlice = 100 * sim.Millisecond
	// campusSetups is how many times the world is constructed for setup_s.
	campusSetups = 15
	// campusJoinCap bounds the join phase; not associating by then fails
	// the run's checks.
	campusJoinCap = 30 * sim.Second
	// campusBlock is the steady phase's round: one simulated second, which
	// holds every light station's traffic tick once.
	campusBlock = 10
	// campusReplayAt is the prefix a second world of the same seed replays
	// for the determinism cross-check.
	campusReplayAt = sim.Second
	// campusMinSlices is the least steady phase a run measures; alloc_mb
	// covers the join plus exactly this many steady slices, a fixed amount
	// of simulated work.
	campusMinSlices = 20
)

func runCampus(b *bench) {
	cfg := core.CampusConfig{
		Seed:     b.seed,
		Rogue:    true,
		Topology: core.TopologyConfig{Kind: core.TopoCampus, APs: campusAPs, STAs: campusSTAs},
	}
	var e endToEnd
	// Set-up: campusSetups constructions, each from a collected heap so
	// whether a GC cycle lands inside one does not depend on the one
	// before. The first is the replay world, the last the measured one.
	var w, replay *core.CampusWorld
	for i := 0; i < campusSetups; i++ {
		runtime.GC()
		t := cpuClock()
		cw := core.NewCampusWorld(cfg)
		e.setups = append(e.setups, (cpuClock() - t).Seconds())
		if i == 0 {
			replay = cw
		}
		w = cw
	}
	replay.Run(campusReplayAt)
	wantCounters, wantDigest := campusCounters(replay), replay.Kernel.Digest()
	replay = nil
	runtime.GC()

	// Count the station payload bytes every AP host (rogue included)
	// receives, keeping the world's own frame counters.
	var delivered uint64
	for i, ap := range w.APs {
		i := i
		ap.HostNIC().SetReceiver(func(f ethernet.Frame) {
			w.APFrames[i]++
			delivered += uint64(len(f.Payload))
		})
	}
	w.Rogue.HostNIC().SetReceiver(func(f ethernet.Frame) {
		w.RogueFrames++
		delivered += uint64(len(f.Payload))
	})

	start := time.Now()
	alloc0 := totalAlloc()
	b.heap.sample()

	// Join phase, profiled whole in a traced run.
	b.traceOn()
	var r core.CampusResult
	var joinCPU time.Duration
	before := b.snap(func() counters { return campusCounters(w) })
	for {
		t := cpuClock()
		w.Run(campusSlice)
		joinCPU += cpuClock() - t
		b.heap.sample()
		b.calibrate()
		if w.Kernel.Now() == campusReplayAt {
			got := campusCounters(w)
			b.check(got == wantCounters && w.Kernel.Digest() == wantDigest,
				"campus seed %d: replay of the first %v diverged (digest %016x vs %016x)",
				b.seed, campusReplayAt, w.Kernel.Digest(), wantDigest)
		}
		r = w.Result()
		now := w.Kernel.Now()
		if (r.Associated == r.STAs && now >= campusReplayAt) || now >= campusJoinCap {
			break
		}
	}
	joinEnd := w.Kernel.Now()
	if b.prof.on {
		// The join has no unprofiled twin, so it counts towards the traced
		// totals but not towards trace.overhead_ratio.
		b.traceCPU += joinCPU
	}
	b.count(before, func() counters { return campusCounters(w) })
	b.traceOff()
	e.join = append(e.join, joinEnd.Seconds()/joinCPU.Seconds())

	// Output checks: every station associated, the rogue holds some.
	for i, sta := range w.STAs {
		b.check(sta.State() == dot11.StateAssociated, "campus seed %d: station %d not associated at %v", b.seed, i, joinEnd)
	}
	b.check(r.OnRogue > 0, "campus seed %d: rogue holds no station at %v", b.seed, joinEnd)
	digest := w.Kernel.Digest()
	fmt.Printf("# campus join: seed=%d end=%v digest=%016x associated=%d/%d on_rogue=%d cpu=%v\n",
		b.seed, joinEnd, digest, r.Associated, r.STAs, r.OnRogue, joinCPU)
	if b.seed == pinSeed {
		b.check(joinEnd == pinCampusJoinEnd && digest == pinCampusDigest,
			"campus seed %d: join ended at %v digest %016x, pinned %v %016x",
			b.seed, joinEnd, digest, pinCampusJoinEnd, pinCampusDigest)
	}

	// Steady phase: slices until the budget is spent. A traced run leaves
	// the first half of the steady budget unprofiled and profiles the
	// second, which gives the profiler's overhead on the same kind of work.
	steadyStart := time.Now()
	half := (b.budget - steadyStart.Sub(start)) / 2
	var blk round
	for n := 0; n < campusMinSlices || n%campusBlock != 0 || time.Since(start) < b.budget ||
		b.tracedShort(campusMinSlices/2); n++ {
		if n >= campusMinSlices/2 && time.Since(steadyStart) >= half {
			b.traceOn()
		}
		bytes0 := delivered
		before := b.snap(func() counters { return campusCounters(w) })
		t := cpuClock()
		w.Run(campusSlice)
		d := cpuClock() - t
		b.unit(d, campusSlice.Seconds())
		b.count(before, func() counters { return campusCounters(w) })
		e.run(d)
		blk.steadySim += campusSlice.Seconds()
		blk.steadyCPU += d
		blk.goodBytes += float64(delivered - bytes0)
		blk.runs++
		blk.runCPU += d
		if n+1 == campusMinSlices {
			e.allocs = append(e.allocs, float64(totalAlloc()-alloc0)/1e6)
		}
		b.heap.sample()
		if blk.runs == campusBlock {
			e.add(blk)
			blk = round{}
		}
		b.calibrate()
	}
	b.traceOff()
	b.reportEndToEnd(e)
}
