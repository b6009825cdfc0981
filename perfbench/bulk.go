package main

import (
	"math/rand/v2"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// The bulk-download workload: the paper's Fig. 2/3 worlds at bulk size. Each
// round runs the three worlds on the round's seed, each downloading a
// multi-MB genuine file that the rogue tries to swap for a same-size trojan.
const (
	bulkBytes = 4 << 20
	// Phases of one world, as in the download scenarios: association, then
	// tunnel set-up for the defended worlds, then the download.
	bulkJoin   = 10 * sim.Second
	bulkTunnel = 20 * sim.Second
	// bulkDownloadCap bounds the download phase; a download not done by
	// then fails the run's checks.
	bulkDownloadCap = 600 * sim.Second
	// bulkMinRounds is the least a run measures: a traced run needs one
	// unprofiled and one profiled round.
	bulkMinRounds = 2
)

// bulkKinds are the worlds of one round: WEP plus a cloned-BSSID rogue
// running netsed; a full tunnel over TCP through the rogue; the overlay
// relay chain.
var bulkKinds = []string{"attack", "vpn", "mesh"}

// bulkRun is one world's measurements and outputs.
type bulkRun struct {
	setup, join, download, total time.Duration
	downloadSim                  sim.Time
	result                       core.DownloadResult
	done, vpnUp                  bool
	digest                       uint64
	counters                     counters
}

// bulkContents makes the genuine file and the same-size trojan from seed.
func bulkContents(seed uint64) (genuine, trojan []byte) {
	rng := rand.New(rand.NewPCG(seed, 0x62756c6b))
	genuine = make([]byte, bulkBytes)
	trojan = make([]byte, bulkBytes)
	for i := 0; i < bulkBytes; i += 8 {
		g, t := rng.Uint64(), rng.Uint64()
		for j := 0; j < 8; j++ {
			genuine[i+j] = byte(g >> (8 * j))
			trojan[i+j] = byte(t >> (8 * j))
		}
	}
	return genuine, trojan
}

// bulkWorld builds one world and drives it through association, tunnel
// set-up (vpn, mesh) and the download, timing each phase from outside.
func bulkWorld(kind string, seed uint64, genuine, trojan []byte) bulkRun {
	cfg, err := core.ScenarioConfig(kind, seed)
	if err != nil {
		panic(err)
	}
	cfg.FileContents, cfg.TrojanContents = genuine, trojan

	var r bulkRun
	t0 := cpuClock()
	w := core.NewWorld(cfg)
	r.setup = cpuClock() - t0

	t := cpuClock()
	w.VictimConnect()
	w.Run(bulkJoin)
	r.join = cpuClock() - t

	if w.Cfg.VPNServer { // filled in by NewWorld: the overlay implies a server
		w.EnableVictimVPN(nil, func(err error) { r.vpnUp = err == nil })
		w.Run(bulkTunnel)
	}

	simStart := w.Kernel.Now()
	var end time.Duration
	t = cpuClock()
	w.VictimDownload(func(d core.DownloadResult) {
		end = cpuClock()
		r.downloadSim = w.Kernel.Now() - simStart
		r.result, r.done = d, true
		w.Kernel.Stop()
	})
	w.Run(bulkDownloadCap)
	if !r.done {
		end = cpuClock()
	}
	r.download = end - t
	r.total = cpuClock() - t0
	r.digest = w.Kernel.Digest()
	r.counters = worldCounters(w, 0)
	return r
}

// verdict is the bulk output check: the attack world must be compromised
// and the defended ones clean, each with a body of the right length.
func (r bulkRun) verdict(kind string) bool {
	if !r.done || len(r.result.Body) != bulkBytes {
		return false
	}
	if kind == "attack" {
		return r.result.Compromised()
	}
	return r.vpnUp && r.result.Clean()
}

func runBulk(b *bench) {
	genuine, trojan := bulkContents(b.seed)
	// The first world of round 0 runs once unmeasured; its measured twin
	// must replay it exactly.
	want := bulkWorld(bulkKinds[0], b.seed, genuine, trojan)
	runtime.GC()

	var e endToEnd
	start := time.Now()
	for n := 0; n < bulkMinRounds || time.Since(start) < b.budget ||
		b.tracedShort(1); n++ {
		// A traced run profiles the rounds of the second half of its budget.
		if n > 0 && time.Since(start) >= b.budget/2 {
			b.traceOn()
		}
		seed := b.seed + uint64(n)
		alloc0 := totalAlloc()
		var setup time.Duration
		var rd round
		for i, kind := range bulkKinds {
			r := bulkWorld(kind, seed, genuine, trojan)
			ok := r.verdict(kind)
			b.check(ok, "bulk %s seed %d: done=%v vpn=%v body=%d compromised=%v clean=%v err=%v",
				kind, seed, r.done, r.vpnUp, len(r.result.Body), r.result.Compromised(), r.result.Clean(), r.result.Err)
			if n == 0 {
				if i == 0 {
					b.check(r.digest == want.digest && r.counters == want.counters,
						"bulk %s seed %d: replay diverged (digest %016x vs %016x)", kind, seed, r.digest, want.digest)
				}
				if b.seed == pinSeed {
					b.check(r.digest == pinBulk[i], "bulk %s seed %d: digest %016x, pinned %016x", kind, seed, r.digest, pinBulk[i])
				}
				printDigest("bulk", kind, seed, r.digest)
			}
			setup += r.setup
			rd.joinSim += bulkJoin.Seconds()
			rd.joinCPU += r.join
			rd.steadySim += r.downloadSim.Seconds()
			rd.steadyCPU += r.download
			if ok {
				rd.goodBytes += float64(len(r.result.Body))
			}
			rd.runs++
			rd.runCPU += r.total
			e.run(r.total)
			if b.prof.on {
				b.traceCounters.add(r.counters)
			}
			b.heap.sample()
			b.calibrate()
		}
		b.unit(rd.runCPU, 1)
		e.add(rd)
		e.setups = append(e.setups, setup.Seconds())
		e.allocs = append(e.allocs, float64(totalAlloc()-alloc0)/1e6)
	}
	b.traceOff()
	b.reportEndToEnd(e)
}
