package phy

import (
	"math"
	"sort"
	"testing"

	"repro/internal/sim"
)

// refGather is the comparison-sort gather the bitmap walk replaced, kept
// verbatim as the reference: the same shard/cell scan, then sort.Slice by
// global attach index.
func refGather(m *Medium, tx *transmission) []*Radio {
	var cand []*Radio
	lo, hi := channelNeighborhood(tx.channel)
	if !m.spatial {
		for ch := lo; ch <= hi; ch++ {
			cand = append(cand, m.shards[ch].radios...)
		}
	} else {
		rad := m.maxDecodeRange(tx.powerDBm)
		p := tx.src.pos
		cx0 := int32(math.Floor((p.X - rad) / m.cellSize))
		cx1 := int32(math.Floor((p.X + rad) / m.cellSize))
		cy0 := int32(math.Floor((p.Y - rad) / m.cellSize))
		cy1 := int32(math.Floor((p.Y + rad) / m.cellSize))
		cells := int64(cx1-cx0+1) * int64(cy1-cy0+1)
		for ch := lo; ch <= hi; ch++ {
			s := &m.shards[ch]
			if len(s.radios) == 0 {
				continue
			}
			if int64(len(s.radios)) <= cells {
				cand = append(cand, s.radios...)
				continue
			}
			for cy := cy0; cy <= cy1; cy++ {
				for cx := cx0; cx <= cx1; cx++ {
					cand = append(cand, s.grid[gridKey{cx, cy}]...)
				}
			}
		}
	}
	sort.Slice(cand, func(i, j int) bool { return cand[i].idx < cand[j].idx })
	return cand
}

// FuzzGatherOrder pins the bitmap gather to the sort it replaced: under
// random attach, retune, move and down churn, on spatial and shadowed
// media, every gather must return exactly refGather's list, and leave its
// bitmap all zero for the next gather to reuse.
func FuzzGatherOrder(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3, 7, 42, 1234} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := sim.NewRNG(seed)
		cfg := Config{}
		if rng.Intn(4) == 0 {
			cfg.ShadowingSigmaDB = 3
		}
		m := NewMedium(sim.NewKernel(seed), cfg)
		// A world a few decode ranges wide, so grid pruning and the
		// sparse-shard scan both come into play.
		extent := 3 * m.cellSize
		pos := func() Position { return Position{rng.Float64() * extent, rng.Float64() * extent} }
		attach := func() {
			m.AddRadio(RadioConfig{Name: "r", Pos: pos(), Channel: Channel(1 + rng.Intn(11))})
		}
		for i := 0; i < 40+rng.Intn(160); i++ {
			attach()
		}
		var g gatherBuf
		for op := 0; op < 400; op++ {
			radios := m.Radios()
			r := radios[rng.Intn(len(radios))]
			switch rng.Intn(5) {
			case 0:
				attach()
			case 1:
				r.SetChannel(Channel(1 + rng.Intn(11)))
			case 2:
				r.SetPosition(pos())
			case 3:
				r.SetDown(!r.Down())
			}
			src := m.Radios()[rng.Intn(len(m.Radios()))]
			tx := &transmission{src: src, channel: src.channel, powerDBm: float64(rng.Intn(31))}
			got := m.gatherInto(&g, tx)
			want := refGather(m, tx)
			if len(got) != len(want) {
				t.Fatalf("op %d: gathered %d candidates, reference %d", op, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("op %d: candidate %d is radio %d, reference radio %d", op, i, got[i].idx, want[i].idx)
				}
			}
			for w, word := range g.bits {
				if word != 0 {
					t.Fatalf("op %d: bitmap word %d left %#x after the walk", op, w, word)
				}
			}
		}
	})
}
