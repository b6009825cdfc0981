package phy

// Speculative delivery preparation (DESIGN.md §14). Under a windowed kernel
// (sim.SetWorkers), each transmission's completion event carries a prepare
// hook that runs the deterministic, RNG-free part of delivery ahead of time,
// possibly on a worker goroutine: the candidate gather and, per candidate,
// the serial loop's own evalRx — the squared-distance decode-floor cut, the
// capture scan over the overlaps registered so far, and rssi/snr only for a
// candidate that passes both. Every candidate keeps its squared distance
// for the commit-time fold of later overlaps. The completion itself — RNG
// draws, counters, digest mixes, receiver callbacks — always commits
// serially, consuming the prepared values only when the generation stamps
// prove no input changed.
//
// The purity contract (sim.Event.prep): a prepare reads shared medium state
// but writes only its own transmission's txPrep. That holds because prepares
// run strictly between commit phases (the window barrier), when nothing
// mutates the medium, and no two prepares share a txPrep. Everything a
// prepare reads is either immutable after construction (cfg, cellSize,
// spatial), snapshotted into the transmission at send time (channel, power
// and its floor range, position source, the overlaps prefix), or covered by
// a generation stamp:
//
//   - posGen: any radio movement invalidates (positions feed every path-loss
//     term);
//   - chanGen over the transmission's channel neighborhood (c±4): every
//     candidate, and every candidate's tuned channel, lives in those shards,
//     and any attach or retune touching them bumps a stamped counter. A
//     retune bumps both endpoints, so radios entering or leaving the
//     neighborhood are covered from either side.
//
// Live per-radio reception state (down, recv) is cheap and order-stable, so
// the commit rechecks it directly instead of stamping it. Overlaps appended
// after the prepare (the list is append-only until retire) fold in at commit
// time: collided is an order-insensitive OR, so prefix + suffix is exact.
//
// Prepares only exist in spatial mode: shadowing makes rxPowerDBm draw from
// the medium's RNG, which a prepare must never touch.

// txPrep is a transmission's speculative delivery state, owned by the
// prepare hook between the window barrier and the commit.
type txPrep struct {
	prepared  bool
	posGen    uint64
	chanLo    Channel
	nChan     int
	chanGen   [9]uint64 // stamps for channelNeighborhood(channel), ≤ 9 wide
	overlapsN int       // overlaps prefix the interference scan covered
	gather    gatherBuf
	capture   captureCheck
	rx        []rxEval
}

// prepare speculatively computes tx's delivery. Runs on a prepare lane; see
// the package comment above for why every read is safe and every write is
// tx-local.
func (m *Medium) prepare(tx *transmission) {
	p := &tx.prep
	p.prepared = false
	if !m.spatial {
		return
	}
	p.posGen = m.posGen
	lo, hi := channelNeighborhood(tx.channel)
	p.chanLo = lo
	p.nChan = int(hi - lo + 1)
	for ch := lo; ch <= hi; ch++ {
		p.chanGen[ch-lo] = m.chanGen[ch]
	}
	p.overlapsN = len(tx.overlaps)
	cand := m.gatherInto(&p.gather, tx)
	p.capture.begin(tx, tx.overlaps[:p.overlapsN])
	if cap(p.rx) < len(cand) {
		p.rx = make([]rxEval, len(cand))
	}
	p.rx = p.rx[:len(cand)]
	for i, rx := range cand {
		if rx == tx.src {
			// The commit skips the source before reading its slot.
			continue
		}
		// The serial loop's own helper: a candidate that passes the floor
		// and the prefix capture test gets its rssi and snr, and every
		// candidate keeps d_tx² for the commit-time suffix fold.
		p.rx[i] = rxEval{}
		m.evalRx(&p.capture, tx, rx, &p.rx[i])
	}
	p.prepared = true
}

// prepValid reports whether tx's prepared delivery may be committed: the
// prepare ran, no radio moved, and no attach/retune touched the channel
// neighborhood since.
func (m *Medium) prepValid(tx *transmission) bool {
	p := &tx.prep
	if !p.prepared || p.posGen != m.posGen {
		return false
	}
	for i := 0; i < p.nChan; i++ {
		if p.chanGen[i] != m.chanGen[p.chanLo+Channel(i)] {
			return false
		}
	}
	return true
}
