package phy

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// The capture differential pins overlapCollides' log-free squared-distance
// test to the exact dB predicate it stands in for (overlapDefeats, the
// original expression): every single-overlap decision and every OR over an
// overlap list must agree, across random geometry, raised rogue powers,
// adjacent and orthogonal channels, co-located radios (d < 1, where path
// loss clamps), several path-loss exponents, and overlappers placed within
// a hair of the capture boundary on either side.

// captureCase draws one receiver, one transmission it is a candidate for,
// and a list of overlapping transmissions.
func captureCase(rng *sim.RNG, m *Medium) (rx *Radio, tx *transmission, overlaps []*transmission) {
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
	rx = &Radio{pos: Position{rng.Float64() * 500, rng.Float64() * 500}, channel: Channel(1 + rng.Intn(11))}
	// Candidates always sit in the transmission's channel neighborhood.
	lo, hi := channelNeighborhood(rx.channel)
	txCh := lo + Channel(rng.Intn(int(hi-lo+1)))
	tx = &transmission{src: &Radio{pos: place(rx.pos, 300)}, channel: txCh, powerDBm: power()}
	n := 1 + rng.Intn(6)
	rssi := m.rxPowerDBm(tx.powerDBm, tx.src.pos, rx.pos) - channelRejectionDB(tx.channel, rx.channel)
	for i := 0; i < n; i++ {
		o := &transmission{channel: Channel(1 + rng.Intn(11)), powerDBm: power()}
		if rng.Intn(3) == 0 {
			// On the boundary: put the overlapper where rssi − op lands
			// eps dB from the capture threshold, eps spanning well outside
			// the guard band down to well inside it.
			orej := channelRejectionDB(o.channel, rx.channel)
			if math.IsInf(orej, 1) {
				orej = 0
				o.channel = rx.channel
			}
			eps := []float64{1e-3, 1e-6, 1e-8, 1e-10, 1e-13, 0}[rng.Intn(6)]
			if rng.Intn(2) == 0 {
				eps = -eps
			}
			// op = rssi − C − eps ⇒ L(d_o) = P_o − orej − rssi + C + eps.
			loss := o.powerDBm - orej - rssi + m.cfg.CaptureThresholdDB + eps
			d := math.Pow(10, (loss-m.cfg.ReferenceLossDB)/(10*m.cfg.PathLossExponent))
			a := rng.Float64() * 2 * math.Pi
			o.src = &Radio{pos: Position{rx.pos.X + d*math.Cos(a), rx.pos.Y + d*math.Sin(a)}}
		} else {
			o.src = &Radio{pos: place(rx.pos, 400)}
		}
		overlaps = append(overlaps, o)
	}
	return rx, tx, overlaps
}

func FuzzCaptureFilterMatchesExact(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3, 7, 42, 1234, 99991} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := sim.NewRNG(seed)
		ple := []float64{2, 3, 3, 3.5, 4}[rng.Intn(5)]
		m := NewMedium(sim.NewKernel(1), Config{PathLossExponent: ple})
		var cc captureCheck
		var held, lost, undecided int
		for c := 0; c < 2000; c++ {
			rx, tx, overlaps := captureCase(rng, m)
			rssi := m.rxPowerDBm(tx.powerDBm, tx.src.pos, rx.pos) - channelRejectionDB(tx.channel, rx.channel)
			wantAny := false
			for _, o := range overlaps {
				want := m.overlapDefeats(o, rx, rssi)
				wantAny = wantAny || want
				cc.begin(tx, []*transmission{o})
				if got := m.overlapCollides(&cc, rx, rssi); got != want {
					t.Fatalf("case %d: filtered decision %v, exact %v (ple %v, rx %+v ch %d, tx %+v ch %d P %v, o %+v ch %d P %v)",
						c, got, want, ple, rx.pos, rx.channel, tx.src.pos, tx.channel, tx.powerDBm,
						o.src.pos, o.channel, o.powerDBm)
				}
				if fac := m.captureFactor(tx, o, rx.channel); fac != 0 {
					dtx := tx.src.pos.DistanceTo(rx.pos)
					dov := o.src.pos.DistanceTo(rx.pos)
					switch captureFilter(dov*dov, dtx*dtx, fac) {
					case captureHeld:
						held++
					case captureLost:
						lost++
					default:
						undecided++
					}
				}
			}
			cc.begin(tx, overlaps)
			if got := m.overlapCollides(&cc, rx, rssi); got != wantAny {
				t.Fatalf("case %d: filtered OR over %d overlaps %v, exact %v", c, len(overlaps), got, wantAny)
			}
		}
		if held == 0 || lost == 0 || undecided == 0 {
			t.Fatalf("weak run: %d held, %d lost, %d undecided — want every outcome", held, lost, undecided)
		}
	})
}

// TestCaptureFilterBoundaryFallsBack constructs decisions exactly on the
// capture boundary — Δ = 0, so the factor is exactly 1, and equal squared
// distances, beyond and inside the 1 m clamp — and checks that the filter
// leaves them undecided and the medium's answer is the exact expression's.
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
		tx := &transmission{src: &Radio{pos: tc.txPos}, channel: 6, powerDBm: 15}
		// P_o = P_tx − C on the same channel: Δ = 0.
		o := &transmission{src: &Radio{pos: tc.oPos}, channel: 6, powerDBm: 15 - m.cfg.CaptureThresholdDB}
		f := m.captureFactor(tx, o, rx.channel)
		if f != 1 {
			t.Fatalf("%s: capture factor %v, want exactly 1", tc.name, f)
		}
		dtx2 := tc.txPos.X*tc.txPos.X + tc.txPos.Y*tc.txPos.Y
		do2 := tc.oPos.X*tc.oPos.X + tc.oPos.Y*tc.oPos.Y
		if got := captureFilter(do2, dtx2, f); got != captureUndecided {
			t.Fatalf("%s: boundary case classified %d, want captureUndecided", tc.name, got)
		}
		rssi := m.rxPowerDBm(tx.powerDBm, tx.src.pos, rx.pos)
		var cc captureCheck
		cc.begin(tx, []*transmission{o})
		if got, want := m.overlapCollides(&cc, rx, rssi), m.overlapDefeats(o, rx, rssi); got != want {
			t.Fatalf("%s: boundary decision %v, exact %v", tc.name, got, want)
		}
	}
}
