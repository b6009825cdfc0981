package phy

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// The filter differentials pin the medium's log-free squared-distance tests
// to the exact dB expressions they stand in for. The capture test
// (overlapCollides, a per-channel audible-overlap scan started at the last
// hit) must agree with overlapDefeats on every single-overlap decision and
// on the OR over an overlap list, receiver after receiver within one
// completion. The decode-floor cut (evalRx) must agree with
// snr+rej < decodeFloorSNRDB, and the rssi and snr it computes lazily must
// carry the eager expression's bits. Both run across random geometry,
// raised rogue powers, adjacent and orthogonal channels, co-located radios
// (d < 1, where path loss clamps), several path-loss exponents, and radios
// placed within a hair of the boundary on either side.

// nearEdge is how far (dB) boundary cases sit from the threshold: from well
// outside the guard band down to well inside it.
var nearEdge = []float64{1e-3, 1e-6, 1e-8, 1e-10, 1e-13, 0}

// distanceForLoss is the distance at which the model's path loss is loss dB.
func distanceForLoss(m *Medium, loss float64) float64 {
	return math.Pow(10, (loss-m.cfg.ReferenceLossDB)/(10*m.cfg.PathLossExponent))
}

// testTx builds a transmission from a detached source radio, with the
// floor range snapshotted the way SendBuf does.
func testTx(m *Medium, pos Position, ch Channel, powerDBm float64) *transmission {
	src := &Radio{medium: m, pos: pos}
	src.SetTxPowerDBm(powerDBm)
	return &transmission{src: src, channel: ch, powerDBm: src.txPower, floorR2: src.floorR2}
}

// exactRSSI is the eager rssi expression the medium always reported.
func exactRSSI(m *Medium, tx *transmission, rx *Radio) float64 {
	return m.rxPowerDBm(tx.powerDBm, tx.src.pos, rx.pos) - channelRejectionDB(tx.channel, rx.channel)
}

// unevaluated is a candidate before evalRx: its squared distance only.
func unevaluated(tx *transmission, rx *Radio) rxEval {
	dx, dy := tx.src.pos.X-rx.pos.X, tx.src.pos.Y-rx.pos.Y
	return rxEval{d2: dx*dx + dy*dy}
}

// captureCase draws one completion: a transmission, the receivers it is
// delivered to, and a list of overlapping transmissions. Boundary overlappers
// are placed against the first receiver; the others sit at its position on
// other channels of the transmission's neighborhood, or nearby.
func captureCase(rng *sim.RNG, m *Medium) (rxs []*Radio, tx *transmission, overlaps []*transmission) {
	place := func(near Position, spread float64) Position {
		if rng.Intn(5) == 0 {
			// Co-located: inside the 1 m path-loss clamp.
			return Position{near.X + rng.Float64()*1.4 - 0.7, near.Y + rng.Float64()*1.4 - 0.7}
		}
		return Position{near.X + (rng.Float64()*2-1)*spread, near.Y + (rng.Float64()*2-1)*spread}
	}
	power := func() float64 {
		if rng.Intn(3) == 0 {
			return 20 + rng.Float64()*12 // a cranked-up rogue
		}
		return []float64{5, 10, 15, 15, 18}[rng.Intn(5)]
	}
	rx := &Radio{pos: Position{rng.Float64() * 500, rng.Float64() * 500}, channel: Channel(1 + rng.Intn(11))}
	// Candidates always sit in the transmission's channel neighborhood.
	lo, hi := channelNeighborhood(rx.channel)
	txCh := lo + Channel(rng.Intn(int(hi-lo+1)))
	tx = testTx(m, place(rx.pos, 300), txCh, power())
	rxs = []*Radio{rx}
	lo, hi = channelNeighborhood(txCh)
	for i := rng.Intn(5); i > 0; i-- {
		pos := rx.pos
		if rng.Intn(2) == 0 {
			pos = place(rx.pos, 50)
		}
		rxs = append(rxs, &Radio{pos: pos, channel: lo + Channel(rng.Intn(int(hi-lo+1)))})
	}
	rssi := exactRSSI(m, tx, rx)
	for i := 1 + rng.Intn(6); i > 0; i-- {
		o := testTx(m, Position{}, Channel(1+rng.Intn(11)), power())
		if rng.Intn(3) == 0 {
			// On the boundary: put the overlapper where rssi − op lands
			// eps dB from the capture threshold.
			orej := channelRejectionDB(o.channel, rx.channel)
			if math.IsInf(orej, 1) {
				orej = 0
				o.channel = rx.channel
			}
			eps := nearEdge[rng.Intn(len(nearEdge))]
			if rng.Intn(2) == 0 {
				eps = -eps
			}
			// op = rssi − C − eps ⇒ L(d_o) = P_o − orej − rssi + C + eps.
			d := distanceForLoss(m, o.powerDBm-orej-rssi+m.cfg.CaptureThresholdDB+eps)
			a := rng.Float64() * 2 * math.Pi
			o.src.pos = Position{rx.pos.X + d*math.Cos(a), rx.pos.Y + d*math.Sin(a)}
		} else {
			o.src.pos = place(rx.pos, 400)
		}
		overlaps = append(overlaps, o)
	}
	return rxs, tx, overlaps
}

// anyDefeats is the exact OR the capture scan must reproduce.
func anyDefeats(m *Medium, overlaps []*transmission, rx *Radio, rssi float64) bool {
	for _, o := range overlaps {
		if m.overlapDefeats(o, rx, rssi) {
			return true
		}
	}
	return false
}

func FuzzCaptureFilterMatchesExact(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3, 7, 42, 1234, 99991} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := sim.NewRNG(seed)
		ple := []float64{2, 3, 3, 3.5, 4}[rng.Intn(5)]
		m := NewMedium(sim.NewKernel(1), Config{PathLossExponent: ple})
		// One captureCheck serves every completion, as the medium's does.
		var cc captureCheck
		var held, lost, undecided, rotated int
		for c := 0; c < 2000; c++ {
			rxs, tx, overlaps := captureCase(rng, m)
			rx := rxs[0]
			rssi := exactRSSI(m, tx, rx)
			for _, o := range overlaps {
				want := m.overlapDefeats(o, rx, rssi)
				cc.begin(tx, []*transmission{o})
				r := unevaluated(tx, rx)
				if got := m.overlapCollides(&cc, rx, &r); got != want {
					t.Fatalf("case %d: filtered decision %v, exact %v (ple %v, rx %+v ch %d, tx %+v ch %d P %v, o %+v ch %d P %v)",
						c, got, want, ple, rx.pos, rx.channel, tx.src.pos, tx.channel, tx.powerDBm,
						o.src.pos, o.channel, o.powerDBm)
				}
				if r.known && r.rssi != rssi {
					t.Fatalf("case %d: fallback rssi %v, eager %v", c, r.rssi, rssi)
				}
				if fac := m.captureFactor(tx, o, rx.channel); fac != 0 {
					dtx := tx.src.pos.DistanceTo(rx.pos)
					dov := o.src.pos.DistanceTo(rx.pos)
					switch sqCompare(max(dov*dov, 1), max(dtx*dtx, 1)*fac) {
					case sqAbove:
						held++
					case sqBelow:
						lost++
					default:
						undecided++
					}
				}
			}
			// The whole completion: every receiver, in an order that revisits
			// channels, scans its channel's list from the last hit there.
			cc.begin(tx, overlaps)
			for j := 0; j < 2*len(rxs); j++ {
				rx := rxs[rng.Intn(len(rxs))]
				want := anyDefeats(m, overlaps, rx, exactRSSI(m, tx, rx))
				if cc.built&(1<<uint(rx.channel)) != 0 && cc.start[rx.channel] != 0 {
					rotated++
				}
				r := unevaluated(tx, rx)
				if got := m.overlapCollides(&cc, rx, &r); got != want {
					t.Fatalf("case %d: filtered OR over %d overlaps at receiver %d (ch %d) %v, exact %v",
						c, len(overlaps), j, rx.channel, got, want)
				}
			}
		}
		if held == 0 || lost == 0 || undecided == 0 || rotated == 0 {
			t.Fatalf("weak run: %d held, %d lost, %d undecided, %d rotated scans — want every outcome",
				held, lost, undecided, rotated)
		}
	})
}

// TestCaptureFilterBoundaryFallsBack constructs decisions exactly on the
// capture boundary — Δ = 0 and equal squared distances, beyond and inside
// the 1 m clamp — and checks that the filter leaves them undecided and the
// medium's answer is the exact expression's. The powers make the factor
// exactly 1: o's floor range R² is 10⁰, and tx's R² is the same
// math.Pow(10, C/(5·PLE)) as the channel part.
func TestCaptureFilterBoundaryFallsBack(t *testing.T) {
	m := NewMedium(sim.NewKernel(1), Config{})
	for _, tc := range []struct {
		name        string
		txPos, oPos Position
	}{
		{"d=5", Position{3, 4}, Position{-4, -3}},
		{"co-located", Position{0.5, 0}, Position{0, 0.3}},
	} {
		rx := &Radio{channel: 6}
		// P_o = P_tx − C on the same channel: Δ = 0.
		unit := m.cfg.ReferenceLossDB + m.cfg.NoiseFloorDBm + decodeFloorSNRDB
		tx := testTx(m, tc.txPos, 6, unit+m.cfg.CaptureThresholdDB)
		o := testTx(m, tc.oPos, 6, unit)
		f := m.captureFactor(tx, o, rx.channel)
		if f != 1 {
			t.Fatalf("%s: capture factor %v, want exactly 1", tc.name, f)
		}
		r := unevaluated(tx, rx)
		do2 := tc.oPos.X*tc.oPos.X + tc.oPos.Y*tc.oPos.Y
		if got := sqCompare(max(do2, 1), max(r.d2, 1)*f); got != sqNear {
			t.Fatalf("%s: boundary case classified %d, want sqNear", tc.name, got)
		}
		rssi := exactRSSI(m, tx, rx)
		var cc captureCheck
		cc.begin(tx, []*transmission{o})
		if got, want := m.overlapCollides(&cc, rx, &r), m.overlapDefeats(o, rx, rssi); got != want {
			t.Fatalf("%s: boundary decision %v, exact %v", tc.name, got, want)
		}
		if !r.known || r.rssi != rssi {
			t.Fatalf("%s: fallback rssi known=%v %v, want %v", tc.name, r.known, r.rssi, rssi)
		}
	}
}

// exactFloor is the decode-floor expression the medium always evaluated.
func exactFloor(m *Medium, tx *transmission, rx *Radio) bool {
	rej := channelRejectionDB(tx.channel, rx.channel)
	snr := exactRSSI(m, tx, rx) - m.cfg.NoiseFloorDBm
	return snr+rej < decodeFloorSNRDB
}

func FuzzFloorFilterMatchesExact(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3, 7, 42, 1234, 99991} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := sim.NewRNG(seed)
		ple := 2 + 2*rng.Float64()
		if rng.Intn(2) == 0 {
			ple = []float64{2, 3, 3.5, 4}[rng.Intn(4)]
		}
		m := NewMedium(sim.NewKernel(1), Config{PathLossExponent: ple})
		var cc captureCheck
		var floored, kept, fellBack int
		for c := 0; c < 2000; c++ {
			p := 32 * rng.Float64()
			if rng.Intn(2) == 0 {
				p = float64(rng.Intn(33))
			}
			tx := testTx(m, Position{rng.Float64() * 500, rng.Float64() * 500}, Channel(1+rng.Intn(11)), p)
			// Distance: co-located, anywhere out to twice the floor range,
			// or eps dB from the floor.
			var d float64
			switch rng.Intn(3) {
			case 0:
				d = rng.Float64() * 1.2
			case 1:
				d = 2 * math.Sqrt(tx.floorR2) * rng.Float64()
			default:
				eps := nearEdge[rng.Intn(len(nearEdge))]
				if rng.Intn(2) == 0 {
					eps = -eps
				}
				// snr = P − L(d) − NF = decodeFloorSNRDB + eps.
				d = distanceForLoss(m, p-m.cfg.NoiseFloorDBm-decodeFloorSNRDB-eps)
			}
			a := rng.Float64() * 2 * math.Pi
			rx := &Radio{pos: Position{tx.src.pos.X + d*math.Cos(a), tx.src.pos.Y + d*math.Sin(a)}}
			rx.channel = Channel(1 + rng.Intn(11))
			r := unevaluated(tx, rx)
			class := sqCompare(max(r.d2, 1), tx.floorR2)
			if class == sqNear {
				fellBack++
			}
			if math.IsInf(channelRejectionDB(tx.channel, rx.channel), 1) {
				// An orthogonal receiver: snr+rej is NaN there and gatherInto
				// never hands the loop one (channelNeighborhood). The cut
				// ignores rejection, so where it decides it must match the
				// same receiver co-channel.
				co := &Radio{pos: rx.pos, channel: tx.channel}
				if class != sqNear && (class == sqAbove) != exactFloor(m, tx, co) {
					t.Fatalf("case %d: orthogonal receiver cut %d, co-channel exact %v", c, class, exactFloor(m, tx, co))
				}
				continue
			}
			cc.begin(tx, nil)
			m.evalRx(&cc, tx, rx, &r)
			if want := exactFloor(m, tx, rx); r.floor != want {
				t.Fatalf("case %d: floor decision %v, exact %v (ple %v, P %v, d %v, tx ch %d, rx ch %d)",
					c, r.floor, want, ple, p, d, tx.channel, rx.channel)
			}
			if r.floor {
				floored++
				continue
			}
			kept++
			rssi := exactRSSI(m, tx, rx)
			if !r.known || math.Float64bits(r.rssi) != math.Float64bits(rssi) ||
				math.Float64bits(r.snr) != math.Float64bits(rssi-m.cfg.NoiseFloorDBm) {
				t.Fatalf("case %d: lazy rssi/snr %v/%v (known %v), eager %v/%v",
					c, r.rssi, r.snr, r.known, rssi, rssi-m.cfg.NoiseFloorDBm)
			}
		}
		if floored == 0 || kept == 0 || fellBack == 0 {
			t.Fatalf("weak run: %d floored, %d kept, %d fallbacks — want every outcome", floored, kept, fellBack)
		}
	})
}

// TestFloorFilterBoundaryFallsBack constructs candidates exactly at the
// floor range — beyond the 1 m clamp, and at a power whose floor range is
// exactly 1 m, inside it — and checks that the cut leaves them undecided and
// the medium's answer is the exact expression's.
func TestFloorFilterBoundaryFallsBack(t *testing.T) {
	m := NewMedium(sim.NewKernel(1), Config{})
	// L0 + NF + floor: the power whose R² is 10⁰ = 1 exactly.
	unitPower := m.cfg.ReferenceLossDB + m.cfg.NoiseFloorDBm + decodeFloorSNRDB
	for _, tc := range []struct {
		name  string
		power float64
		rxPos func(r2 float64) Position
	}{
		{"d=R", 15, func(r2 float64) Position { return Position{math.Sqrt(r2), 0} }},
		{"co-located", unitPower, func(float64) Position { return Position{0.3, 0.4} }},
	} {
		tx := testTx(m, Position{}, 1, tc.power)
		rx := &Radio{pos: tc.rxPos(tx.floorR2), channel: 3}
		r := unevaluated(tx, rx)
		if got := sqCompare(max(r.d2, 1), tx.floorR2); got != sqNear {
			t.Fatalf("%s: boundary case classified %d (d² %v, R² %v), want sqNear", tc.name, got, r.d2, tx.floorR2)
		}
		var cc captureCheck
		cc.begin(tx, nil)
		m.evalRx(&cc, tx, rx, &r)
		if want := exactFloor(m, tx, rx); r.floor != want {
			t.Fatalf("%s: boundary decision %v, exact %v", tc.name, r.floor, want)
		}
		if !r.known {
			t.Fatalf("%s: the fallback did not compute rssi", tc.name)
		}
	}
}
