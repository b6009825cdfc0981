package phy

import (
	"math"
	"math/bits"
)

// This file is the spatial/channel index behind the medium: one shard per
// DSSS channel, each holding the radios tuned to it (bucketed by a coarse
// square grid) and the transmissions it currently carries. A transmission is
// evaluated only against the radios that could possibly decode it — the
// shards within adjacent-channel rejection range and the grid cells within
// the maximum decode range — so delivery cost scales with the interference
// neighborhood, not the world size.
//
// Determinism (DESIGN.md §13): shard iteration is always in ascending
// channel order and grid-cell scans walk a fixed row-major rectangle, but
// neither order is what delivery sees. The gather marks each candidate's
// global attach index in a bitmap and reads the set bits back in ascending
// order, so the candidate list comes out in global attach order — the exact
// radio order the pre-shard medium used — with no comparison sort, in
// O(radios/64 + candidates). The set provably contains every radio the loss
// model would roll dice for, which is why the pinned chaos digests survive
// the index byte-identical.

// decodeFloorDB puts a hard floor under the loss model: a receiver whose
// pre-rejection SNR sits this far below the most forgiving rate's required
// SNR has a per-block success probability under 6e-7 at ANY rate, and the
// medium skips the delivery attempt without consuming an RNG draw. The
// floor is what makes spatial pruning sound — the grid may hand the
// delivery loop a superset of the in-range radios, and the floor is the
// exact, deterministic filter.
//
// The cut takes no logarithm: the floor holds exactly when max(d², 1)
// exceeds the square of the distance at which the transmitter's
// pre-rejection SNR reaches decodeFloorSNRDB (floorRange2, cached per
// radio), so evalRx compares squared distances and evaluates the dB
// expression only inside sqGuard's band.
//
// Two deliberate choices keep the draw sequence identical to the pre-shard
// medium for every world whose radios sit inside the decode range:
//   - the floor ignores channel rejection (a close radio on an adjacent
//     channel still rolls its dice, however hopeless rejection makes them,
//     exactly as before the refactor);
//   - it only applies when shadowing is off: lognormal shadowing makes
//     reception at any distance a draw the loss model must keep making, so
//     shadowed mediums evaluate every radio in the channel neighborhood.
const decodeFloorDB = 12

// decodeFloorSNRDB is the floor as an absolute pre-rejection SNR: below
// Rate1Mbps's 4 dB requirement minus the floor margin, no rate decodes.
const decodeFloorSNRDB = 4 - decodeFloorDB

// defaultTxPowerDBm is the radio default (typical 802.11b card); the grid
// cell size is derived from it so one cell spans a default transmitter's
// decode range.
const defaultTxPowerDBm = 15

// gridKey addresses one square grid cell of a shard.
type gridKey struct{ cx, cy int32 }

// mediumShard is the per-channel partition: member radios, their spatial
// grid, and the transmissions on air on this channel.
type mediumShard struct {
	radios []*Radio
	grid   map[gridKey][]*Radio
	active []*transmission
}

// shard returns the partition for a channel (caller guarantees validity).
func (m *Medium) shard(c Channel) *mediumShard { return &m.shards[c] }

// channelNeighborhood bounds the channels whose energy is mutually audible:
// 802.11b channels 5 or more apart are orthogonal (channelRejectionDB is
// +Inf), so only c±4 can interact.
func channelNeighborhood(c Channel) (lo, hi Channel) {
	lo, hi = c-4, c+4
	if lo < MinChannel {
		lo = MinChannel
	}
	if hi > MaxChannel {
		hi = MaxChannel
	}
	return lo, hi
}

// maxDecodeRange is the distance at which a transmission at powerDBm falls
// to decodeFloorSNRDB of pre-rejection SNR — beyond it no receiver rolls
// dice for the frame. The 1% slack keeps the grid's cell rectangle strictly
// conservative against float rounding: pruning must only ever drop radios
// the floor check would skip anyway.
func (m *Medium) maxDecodeRange(powerDBm float64) float64 {
	exp := (powerDBm - m.cfg.ReferenceLossDB - m.cfg.NoiseFloorDBm - decodeFloorSNRDB) /
		(10 * m.cfg.PathLossExponent)
	return 1.01 * math.Pow(10, exp)
}

// cellOf maps a position to its grid cell.
func (m *Medium) cellOf(p Position) gridKey {
	return gridKey{
		cx: int32(math.Floor(p.X / m.cellSize)),
		cy: int32(math.Floor(p.Y / m.cellSize)),
	}
}

// insert adds r (already positioned and tuned) to the shard and its grid
// cell, recording the indices that make removal O(1).
func (s *mediumShard) insert(r *Radio, key gridKey) {
	r.shardIdx = len(s.radios)
	s.radios = append(s.radios, r)
	if s.grid == nil {
		s.grid = make(map[gridKey][]*Radio)
	}
	r.cell = key
	cell := s.grid[key]
	r.cellIdx = len(cell)
	s.grid[key] = append(cell, r)
}

// remove detaches r from the shard via swap-remove. Membership order is not
// observable — the gather re-orders candidates by global index.
func (s *mediumShard) remove(r *Radio) {
	last := len(s.radios) - 1
	moved := s.radios[last]
	s.radios[r.shardIdx] = moved
	moved.shardIdx = r.shardIdx
	s.radios[last] = nil
	s.radios = s.radios[:last]
	s.removeFromCell(r)
}

// removeFromCell detaches r from its grid cell only (swap-remove). The
// emptied tail slot keeps its backing array so scan-heavy radios that hop
// between channels do not reallocate cell slices.
func (s *mediumShard) removeFromCell(r *Radio) {
	cell := s.grid[r.cell]
	last := len(cell) - 1
	moved := cell[last]
	cell[r.cellIdx] = moved
	moved.cellIdx = r.cellIdx
	cell[last] = nil
	s.grid[r.cell] = cell[:last]
}

// gatherBuf is one gather's scratch: the candidate list it returns and the
// attach-index bitmap that orders it. The bitmap is all zero between gathers
// (the ordered walk clears every word it reads), so a gather never pays to
// reset it. Each concurrent gatherer — the delivery loop, every prepare —
// owns its own.
type gatherBuf struct {
	cand []*Radio
	bits []uint64
}

// mark adds radios to the bitmap.
func (g *gatherBuf) mark(radios []*Radio) {
	for _, r := range radios {
		g.bits[r.idx>>6] |= 1 << uint(r.idx&63)
	}
}

// gatherInto collects every radio that could decode (or, with shadowing,
// would draw for) tx into g.cand, in ascending global attach order — the
// exact iteration order of the pre-shard medium. It only reads the shard
// index, so prepare hooks may call it concurrently as long as each passes
// its own buffer.
func (m *Medium) gatherInto(g *gatherBuf, tx *transmission) []*Radio {
	if words := (len(m.radios) + 63) >> 6; len(g.bits) < words {
		g.bits = make([]uint64, words)
	}
	lo, hi := channelNeighborhood(tx.channel)
	if !m.spatial {
		// Shadowing mode: reception at any distance is a draw, so every
		// radio in the channel neighborhood participates.
		for ch := lo; ch <= hi; ch++ {
			g.mark(m.shards[ch].radios)
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
				// Sparse shard: scanning the member list beats probing more
				// cells than it has radios. Safe either way — the decode
				// floor, not the grid, is the exact filter.
				g.mark(s.radios)
				continue
			}
			for cy := cy0; cy <= cy1; cy++ {
				for cx := cx0; cx <= cx1; cx++ {
					g.mark(s.grid[gridKey{cx, cy}])
				}
			}
		}
	}
	cand := g.cand[:0]
	for w, word := range g.bits {
		if word == 0 {
			continue
		}
		g.bits[w] = 0
		for word != 0 {
			cand = append(cand, m.radios[w<<6|bits.TrailingZeros64(word)])
			word &= word - 1
		}
	}
	g.cand = cand
	return cand
}

// EnergyDBm reports the strongest energy the radio currently senses on its
// tuned channel, scanning the shard neighborhood's active transmissions —
// the noise floor when the air is quiet (or the radio is down). This is the
// shard-index view of the air that carrier sense and the jammer use; it
// needs no receiver and consumes no RNG.
func (r *Radio) EnergyDBm() float64 {
	m := r.medium
	e := m.cfg.NoiseFloorDBm
	if r.down {
		return e
	}
	now := m.kernel.Now()
	lo, hi := channelNeighborhood(r.channel)
	for ch := lo; ch <= hi; ch++ {
		rej := channelRejectionDB(ch, r.channel)
		for _, t := range m.shards[ch].active {
			if t.end <= now || t.start > now || t.src == r {
				continue
			}
			p := t.powerDBm - m.pathLossDB(t.src.pos, r.pos) - rej
			if p > e {
				e = p
			}
		}
	}
	return e
}
