// Package phy models the 802.11b physical layer: a shared broadcast medium
// with DSSS channels 1–11, log-distance path loss, SNR-dependent frame loss,
// airtime at the 1/2/5.5/11 Mb/s rates, carrier sense, and collisions.
//
// The model is deliberately simple but captures the properties the paper's
// attack depends on:
//
//   - broadcast: every radio in range overhears every frame (Section 1.1's
//     eavesdropping asymmetry, experiment E8);
//   - signal strength: clients prefer the loudest AP for an SSID, which is
//     how a nearby rogue wins associations (experiment E1);
//   - channels: the rogue runs on a different channel (Figure 1: CORP on
//     channel 1, rogue on channel 6) so it does not compete with the real AP.
package phy

import (
	"fmt"
	"math"

	"repro/internal/pkt"
	"repro/internal/sim"
)

// Channel is an 802.11b DSSS channel number (1–11 in the US).
type Channel int

// MinChannel and MaxChannel bound the US 802.11b channel plan.
const (
	MinChannel Channel = 1
	MaxChannel Channel = 11
)

// Valid reports whether c is a legal channel.
func (c Channel) Valid() bool { return c >= MinChannel && c <= MaxChannel }

// Rate is an 802.11b PHY bit rate.
type Rate int

// The four 802.11b rates.
const (
	Rate1Mbps  Rate = 1_000_000
	Rate2Mbps  Rate = 2_000_000
	Rate5Mbps  Rate = 5_500_000
	Rate11Mbps Rate = 11_000_000
)

// String formats the rate.
func (r Rate) String() string {
	switch r {
	case Rate5Mbps:
		return "5.5Mbps"
	default:
		return fmt.Sprintf("%dMbps", int(r)/1_000_000)
	}
}

// requiredSNR is the SNR (dB) at which each rate starts working well.
func (r Rate) requiredSNR() float64 {
	switch r {
	case Rate1Mbps:
		return 4
	case Rate2Mbps:
		return 6
	case Rate5Mbps:
		return 8
	default: // 11 Mb/s
		return 10
	}
}

// plcpOverhead is the long-preamble PLCP preamble+header airtime.
const plcpOverhead = 192 * sim.Microsecond

// Airtime reports how long a frame of n bytes occupies the air at rate r,
// including the PLCP preamble.
func Airtime(n int, r Rate) sim.Time {
	return plcpOverhead + sim.Time(math.Round(float64(n*8)/float64(r)*float64(sim.Second)))
}

// Position is a 2-D location in metres.
type Position struct{ X, Y float64 }

// DistanceTo returns the Euclidean distance in metres.
func (p Position) DistanceTo(q Position) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Config sets the propagation model. Zero values take the defaults noted.
type Config struct {
	// PathLossExponent: 2 free space, ~3 indoor office (default 3).
	PathLossExponent float64
	// ReferenceLossDB is the loss at 1 m (default 40 dB, ~2.4 GHz).
	ReferenceLossDB float64
	// NoiseFloorDBm (default -95).
	NoiseFloorDBm float64
	// ShadowingSigmaDB adds per-frame lognormal shadowing (default 0:
	// deterministic propagation; experiments that want fading set it).
	ShadowingSigmaDB float64
	// CaptureThresholdDB: a frame survives an overlap if it is this much
	// stronger than the interferer (default 10 dB).
	CaptureThresholdDB float64
	// CarrierSenseDBm: energy above this is "channel busy" (default -85).
	CarrierSenseDBm float64
}

func (c *Config) fill() {
	if c.PathLossExponent == 0 {
		c.PathLossExponent = 3
	}
	if c.ReferenceLossDB == 0 {
		c.ReferenceLossDB = 40
	}
	if c.NoiseFloorDBm == 0 {
		c.NoiseFloorDBm = -95
	}
	if c.CaptureThresholdDB == 0 {
		c.CaptureThresholdDB = 10
	}
	if c.CarrierSenseDBm == 0 {
		c.CarrierSenseDBm = -85
	}
}

// BurstLoss is a two-state Gilbert–Elliott channel-condition model: the
// medium is either Good or Bad, hopping between the states once per
// completed transmission, and each state adds its own frame-loss
// probability on top of the SNR model. A microwave oven, a passing forklift,
// or a jammer duty cycle all look like this to a receiver: loss arrives in
// bursts, not independently per frame — which is exactly the condition that
// exposes naive retransmission and reassociation logic.
type BurstLoss struct {
	// PGoodToBad is the per-frame probability of entering the Bad state.
	PGoodToBad float64
	// PBadToGood is the per-frame probability of recovering to Good.
	PBadToGood float64
	// GoodLoss is the extra loss probability while Good (usually 0).
	GoodLoss float64
	// BadLoss is the extra loss probability while Bad.
	BadLoss float64
}

// Medium is the shared air. All radios attach to one Medium.
//
// Internally the medium is partitioned into one shard per channel (see
// shard.go): each shard tracks its member radios in a spatial grid and the
// transmissions currently on its air, so a delivery touches only the
// interference neighborhood — O(neighbors), not O(all radios).
type Medium struct {
	kernel *sim.Kernel
	cfg    Config
	rng    *sim.RNG
	// radios is the global attach-order list; each radio's position in it
	// (Radio.idx) fixes the delivery fan-out order.
	radios []*Radio
	// shards[1..11] partition radios and active transmissions by channel.
	shards [MaxChannel + 1]mediumShard
	// cellSize is the grid cell edge (one default-power decode range).
	cellSize float64
	// spatial enables grid pruning, the decode floor and the log-free
	// floor and capture tests. It is off when shadowing is on (reception at
	// any distance is then a draw the loss model must keep making).
	spatial bool
	// gather and capture are the serial delivery loop's scratch: its
	// candidate gather and its audible-overlap lists. Prepare hooks never
	// touch them — each transmission's txPrep owns its own.
	gather  gatherBuf
	capture captureCheck
	// chanFactor[a][b] is the channel part of the capture factor
	// (captureFactor) for a transmission a channels from the receiver
	// against an overlap b channels from it; b ≥ 5 is inaudible.
	chanFactor [MaxChannel][5]float64

	// posGen/chanGen are staleness stamps for speculative delivery prepares
	// (prepare.go): any SetPosition bumps posGen; attaching or retuning a
	// radio bumps the affected channels' chanGen. A prepared result commits
	// only if every stamp its computation could have read is unchanged.
	posGen  uint64
	chanGen [MaxChannel + 1]uint64

	// burst, when non-nil, is the active Gilbert–Elliott fault state
	// (internal/faults installs it). burstBad is the current chain state.
	burst    *BurstLoss
	burstBad bool

	// freeTx is the LIFO freelist of recycled transmission structs. A
	// transmission is recycled only once its own completion has run and no
	// other live transmission's overlaps list references it (pins == 0), so
	// reuse order is a pure function of the event sequence.
	freeTx []*transmission

	// Stats.
	Transmissions uint64
	Deliveries    uint64
	SNRDrops      uint64
	Collisions    uint64
	BurstDrops    uint64
	// PrepCommits/PrepStale count completions that consumed a prepared
	// delivery vs. recomputed serially (stale stamps, or a serial kernel
	// where the hook never ran). Diagnostics only — not part of any digest.
	PrepCommits uint64
	PrepStale   uint64
}

type transmission struct {
	src        *Radio
	channel    Channel
	start, end sim.Time
	powerDBm   float64
	// floorR2 is the source radio's squared decode-floor range,
	// snapshotted with powerDBm.
	floorR2 float64
	data    []byte
	// buf owns the bytes data views; the medium releases it when the
	// transmission completes.
	buf  *pkt.Buf
	rate Rate
	air  sim.Time
	// overlaps lists transmissions whose air occupancy intersects this
	// one's; maintained symmetrically as transmissions start.
	overlaps []*transmission
	// pins counts live transmissions whose overlaps list references this
	// one; done records that complete has run. Both gate recycling.
	pins int
	done bool
	// completeFn is the completion closure, bound once per struct so
	// recycled transmissions do not re-allocate it; prepareFn is the
	// speculative prepare hook handed to sim.SchedulePrep the same way.
	completeFn func()
	prepareFn  func()
	// prep holds the speculatively precomputed delivery (prepare.go), valid
	// only when prep.prepared and the generation stamps still match.
	prep txPrep
}

// NewMedium creates an empty medium on the kernel.
func NewMedium(k *sim.Kernel, cfg Config) *Medium {
	cfg.fill()
	m := &Medium{kernel: k, cfg: cfg, rng: k.RNG().Fork()}
	m.cellSize = m.maxDecodeRange(defaultTxPowerDBm)
	m.spatial = cfg.ShadowingSigmaDB == 0
	for a := range m.chanFactor {
		for b := range m.chanFactor[a] {
			delta := cfg.CaptureThresholdDB + channelRejectionDB(Channel(a), 0) - channelRejectionDB(Channel(b), 0)
			m.chanFactor[a][b] = math.Pow(10, delta/(5*cfg.PathLossExponent))
		}
	}
	// The medium is the kernel's only source of preparable events, and every
	// completion it schedules is at least one PLCP preamble away — the
	// minimum airtime is the conservative lookahead (DESIGN.md §14).
	k.SetLookahead(plcpOverhead)
	return m
}

// SetBurstLoss installs (or, with nil, clears) the Gilbert–Elliott burst
// model. Enabling resets the chain to the Good state, so a run's loss
// pattern is a pure function of the seed and the schedule. The chain only
// draws from the RNG while installed: a medium without a burst model has an
// identical random stream to one that never heard of it.
func (m *Medium) SetBurstLoss(b *BurstLoss) {
	m.burst = b
	m.burstBad = false
}

// BurstBad reports whether the burst-loss chain is currently in the Bad
// state (false when no model is installed).
func (m *Medium) BurstBad() bool { return m.burst != nil && m.burstBad }

// burstHit steps the Gilbert–Elliott chain once and reports whether the
// current transmission is wiped by the burst condition. Channel-wide: a
// burst is interference every receiver hears, so one draw decides the frame
// for all of them.
func (m *Medium) burstHit() bool {
	b := m.burst
	if b == nil {
		return false
	}
	if m.burstBad {
		if m.rng.Bool(b.PBadToGood) {
			m.burstBad = false
		}
	} else if m.rng.Bool(b.PGoodToBad) {
		m.burstBad = true
	}
	loss := b.GoodLoss
	if m.burstBad {
		loss = b.BadLoss
	}
	return m.rng.Bool(loss)
}

// pathLossDB returns the propagation loss between two positions.
func (m *Medium) pathLossDB(a, b Position) float64 {
	d := a.DistanceTo(b)
	if d < 1 {
		d = 1
	}
	return m.cfg.ReferenceLossDB + 10*m.cfg.PathLossExponent*math.Log10(d)
}

// rxPowerDBm is the received power at rx for a transmission from tx.
func (m *Medium) rxPowerDBm(txPower float64, txPos, rxPos Position) float64 {
	p := txPower - m.pathLossDB(txPos, rxPos)
	if m.cfg.ShadowingSigmaDB > 0 {
		p += m.rng.NormFloat64() * m.cfg.ShadowingSigmaDB
	}
	return p
}

// channelRejectionDB attenuates energy from adjacent channels. 802.11b
// channels 5 apart are effectively orthogonal.
func channelRejectionDB(a, b Channel) float64 {
	d := int(a) - int(b)
	if d < 0 {
		d = -d
	}
	if d == 0 {
		return 0
	}
	if d >= 5 {
		return math.Inf(1)
	}
	return float64(d) * 12
}

// RxInfo describes a received frame to the MAC layer.
type RxInfo struct {
	Channel Channel
	RSSIDBm float64
	SNRDB   float64
	Rate    Rate
	At      sim.Time
	Airtime sim.Time
	// Src identifies the transmitting radio; it exists for tracing and is
	// not information a real receiver would have beyond the frame contents.
	Src *Radio
}

// Receiver consumes frames that survive the channel.
type Receiver func(data []byte, info RxInfo)

// Radio is one 802.11 transceiver attached to the medium. A radio is
// half-duplex and tuned to a single channel at a time.
type Radio struct {
	medium  *Medium
	name    string
	pos     Position
	channel Channel
	txPower float64 // dBm
	// floorR2 follows txPower: the squared decode-floor range,
	// floorRange2, cached so that no completion calls math.Pow.
	floorR2  float64
	recv     Receiver
	sendBusy sim.Time // our own tx serialisation
	// down radios neither transmit nor receive — the link-flap fault.
	down bool

	// idx is the radio's global attach order; deliveries fan out in
	// ascending idx, which is the determinism contract's total order.
	idx int
	// digestLabel caches "phy/rx:"+name so the per-delivery digest mix does
	// not concatenate (and allocate) the label per frame.
	digestLabel string
	// shardIdx/cell/cellIdx locate the radio inside its channel shard and
	// grid cell for O(1) migration (see shard.go).
	shardIdx int
	cell     gridKey
	cellIdx  int

	// Counters.
	TxFrames, RxFrames, RxCollisions, RxBelowSNR uint64
	TxWhileDown                                  uint64
}

// RadioConfig configures a new radio.
type RadioConfig struct {
	Name       string
	Pos        Position
	Channel    Channel
	TxPowerDBm float64 // default 15 dBm (typical 802.11b card)
}

// AddRadio attaches a new radio to the medium.
func (m *Medium) AddRadio(cfg RadioConfig) *Radio {
	if cfg.TxPowerDBm == 0 {
		cfg.TxPowerDBm = defaultTxPowerDBm
	}
	if cfg.Channel == 0 {
		cfg.Channel = 1
	}
	if !cfg.Channel.Valid() {
		panic(fmt.Sprintf("phy: invalid channel %d", cfg.Channel))
	}
	r := &Radio{medium: m, name: cfg.Name, pos: cfg.Pos, channel: cfg.Channel}
	r.setTxPower(cfg.TxPowerDBm)
	r.digestLabel = "phy/rx:" + cfg.Name
	r.idx = len(m.radios)
	m.radios = append(m.radios, r)
	m.shard(r.channel).insert(r, m.cellOf(r.pos))
	m.chanGen[r.channel]++
	return r
}

// Name reports the radio's human-readable name.
func (r *Radio) Name() string { return r.name }

// Position reports the radio's location.
func (r *Radio) Position() Position { return r.pos }

// SetPosition moves the radio (client mobility), migrating it between grid
// cells when it crosses a cell boundary.
func (r *Radio) SetPosition(p Position) {
	r.pos = p
	r.medium.posGen++
	s := r.medium.shard(r.channel)
	if key := r.medium.cellOf(p); key != r.cell {
		s.removeFromCell(r)
		cell := s.grid[key]
		r.cell = key
		r.cellIdx = len(cell)
		s.grid[key] = append(cell, r)
	}
}

// Channel reports the tuned channel.
func (r *Radio) Channel() Channel { return r.channel }

// SetChannel retunes the radio (used by scanning clients and monitors),
// migrating it to the new channel's shard.
func (r *Radio) SetChannel(c Channel) {
	if !c.Valid() {
		panic(fmt.Sprintf("phy: invalid channel %d", c))
	}
	if c == r.channel {
		return
	}
	r.medium.chanGen[r.channel]++
	r.medium.chanGen[c]++
	r.medium.shard(r.channel).remove(r)
	r.channel = c
	r.medium.shard(c).insert(r, r.cell)
}

// SetDown takes the radio off the air (link-flap fault) or brings it back.
// A down radio's transmissions vanish silently and it hears nothing — from
// the protocol's point of view the hardware momentarily died, which is
// precisely what the self-healing logic above it must survive. The radio
// keeps its shard/grid membership while down — flaps are transient and the
// delivery loop's down-check is cheaper than churning the index.
func (r *Radio) SetDown(down bool) { r.down = down }

// Down reports whether the radio is administratively down.
func (r *Radio) Down() bool { return r.down }

// TxPowerDBm reports the transmit power.
func (r *Radio) TxPowerDBm() float64 { return r.txPower }

// SetTxPowerDBm adjusts transmit power (the rogue AP cranks this up).
func (r *Radio) SetTxPowerDBm(p float64) { r.setTxPower(p) }

// setTxPower sets the transmit power and the floor range derived from it.
func (r *Radio) setTxPower(p float64) {
	r.txPower = p
	r.floorR2 = r.medium.floorRange2(p)
}

// SetReceiver installs the MAC-layer frame handler. The PHY delivers every
// decodable frame on the tuned channel; address filtering is the MAC's job,
// which is exactly why wireless sniffing is trivial.
func (r *Radio) SetReceiver(recv Receiver) { r.recv = recv }

// CarrierBusy reports whether the radio senses energy on its channel. A
// down radio senses nothing.
func (r *Radio) CarrierBusy() bool {
	if r.down {
		return false
	}
	return r.EnergyDBm() >= r.medium.cfg.CarrierSenseDBm
}

// Send transmits data at the given rate on the radio's channel. It adopts
// the slice as a non-pooled buffer; senders on the hot path use SendBuf.
func (r *Radio) Send(data []byte, rate Rate) sim.Time {
	return r.SendBuf(pkt.Wrap(data), rate)
}

// SendBuf transmits the packet buffer's view at the given rate on the
// radio's channel, taking ownership of pb (the medium releases it when the
// transmission leaves the air, on every path). Transmissions from one radio
// serialise; the medium handles loss and collisions. The returned time is
// when the transmission ends.
func (r *Radio) SendBuf(pb *pkt.Buf, rate Rate) sim.Time {
	m := r.medium
	now := m.kernel.Now()
	if r.down {
		// The frame leaves the MAC and dies in the dead hardware; report
		// the airtime it would have taken so senders' pacing still works.
		r.TxWhileDown++
		end := now + Airtime(pb.Len(), rate)
		pb.Release()
		return end
	}
	start := now
	if r.sendBusy > start {
		start = r.sendBusy
	}
	air := Airtime(pb.Len(), rate)
	end := start + air
	r.sendBusy = end
	r.TxFrames++
	m.Transmissions++

	tx := m.getTx()
	tx.src, tx.channel, tx.start, tx.end = r, r.channel, start, end
	tx.powerDBm, tx.floorR2 = r.txPower, r.floorR2
	tx.data, tx.buf, tx.rate, tx.air = pb.Bytes(), pb, rate, air
	// Register overlaps across every shard (in fixed channel order): a
	// transmission up to 8 channels away can still interfere at a receiver
	// sitting between the two, so the overlap graph stays channel-blind —
	// exactly as wide as the pre-shard global scan. Per-receiver rejection
	// decides what actually matters at delivery time.
	for ch := MinChannel; ch <= MaxChannel; ch++ {
		for _, t := range m.shards[ch].active {
			if t.end > start && t.start < end {
				t.overlaps = append(t.overlaps, tx)
				tx.pins++
				tx.overlaps = append(tx.overlaps, t)
				t.pins++
			}
		}
	}
	s := m.shard(r.channel)
	s.active = append(s.active, tx)
	if m.spatial {
		// The completion is preparable: under a windowed kernel its
		// candidate gather and SNR/interference math run ahead of time on a
		// prepare lane (prepare.go). On a serial kernel the hook is ignored.
		m.kernel.SchedulePrep(end, tx.completeFn, tx.prepareFn)
	} else {
		m.kernel.Schedule(end, tx.completeFn)
	}
	return end
}

// getTx pops a recycled transmission or allocates a fresh one, binding its
// completion and prepare closures exactly once.
func (m *Medium) getTx() *transmission {
	if n := len(m.freeTx); n > 0 {
		tx := m.freeTx[n-1]
		m.freeTx = m.freeTx[:n-1]
		tx.pins, tx.done = 0, false
		tx.prep.prepared = false
		return tx
	}
	tx := &transmission{}
	tx.completeFn = func() { m.complete(tx) }
	tx.prepareFn = func() { m.prepare(tx) }
	return tx
}

// putTx returns a finished transmission to the freelist. The buffer was
// already released by complete; drop the remaining references so the pool
// does not pin them.
func (m *Medium) putTx(tx *transmission) {
	tx.src, tx.data, tx.buf = nil, nil, nil
	tx.overlaps = tx.overlaps[:0]
	m.freeTx = append(m.freeTx, tx)
}

// complete runs at a transmission's end time: it evaluates reception at each
// candidate radio and prunes its shard's active list. The whole fan-out runs
// inside a delivery barrier, so every pkt.Buf released by a receiver —
// including tx's own buffer — is parked in the pool's arena and recycled
// only after the last receiver has run.
func (m *Medium) complete(tx *transmission) {
	rate, air := tx.rate, tx.air
	m.kernel.BeginDelivery()
	defer m.kernel.EndDelivery()
	// The Release receiver is bound here, before retire can recycle tx.
	defer tx.buf.Release()
	defer m.retire(tx)
	now := m.kernel.Now()
	overlaps := tx.overlaps
	s := m.shard(tx.channel)
	kept := s.active[:0]
	for _, t := range s.active {
		if t != tx && t.end > now {
			kept = append(kept, t)
		}
	}
	for i := len(kept); i < len(s.active); i++ {
		s.active[i] = nil
	}
	s.active = kept

	if m.burstHit() {
		m.BurstDrops++
		return
	}

	// Candidate order is the global attach order in every mode — the RNG
	// draw sequence per candidate is what the digest contract pins. A valid
	// speculative prepare supplies the candidate list and each candidate's
	// evalRx result (same helper, same inputs — bit-identical); everything
	// involving RNG, counters, the digest, or receiver callbacks happens
	// here, serially, in either case.
	var cand []*Radio
	var prx []rxEval
	cc := &m.capture
	if m.prepValid(tx) {
		cand, prx = tx.prep.gather.cand, tx.prep.rx
		// Overlaps registered after the prepare ran (the list is append-only
		// until retire) fold in serially; collided is an order-insensitive
		// OR, so prefix-then-suffix is exact.
		cc.begin(tx, overlaps[tx.prep.overlapsN:])
		m.PrepCommits++
	} else {
		cand = m.gatherInto(&m.gather, tx)
		cc.begin(tx, overlaps)
		m.PrepStale++
	}
	for i, rx := range cand {
		// No-receiver radios (the fault jammer is the only kind) are skipped
		// before any loss draw: there is nothing to deliver to, so burning
		// RNG state on them would couple every receiver's loss pattern to
		// the presence of deaf hardware. down/recv are live state, checked
		// at commit time even on the prepared path.
		if rx == tx.src || rx.down || rx.recv == nil {
			continue
		}
		var r rxEval
		if prx != nil {
			r = prx[i]
			if !r.floor && !r.collided {
				r.collided = m.overlapCollides(cc, rx, &r)
			}
		} else {
			m.evalRx(cc, tx, rx, &r)
		}
		if r.floor {
			rx.RxBelowSNR++
			m.SNRDrops++
			continue
		}
		if r.collided {
			rx.RxCollisions++
			m.Collisions++
			continue
		}
		if !m.frameSurvives(r.snr, len(tx.data), rate) {
			rx.RxBelowSNR++
			m.SNRDrops++
			continue
		}
		rx.RxFrames++
		m.Deliveries++
		m.kernel.MixDigest(rx.digestLabel, tx.data)
		info := RxInfo{
			Channel: tx.channel, RSSIDBm: r.rssi, SNRDB: r.snr,
			Rate: rate, At: now, Airtime: air, Src: tx.src,
		}
		rx.recv(tx.data, info)
	}
}

// rxEval is one candidate's reception up to, not including, the loss draw.
type rxEval struct {
	// d2 is the squared tx–rx distance (spatial mode only).
	d2 float64
	// rssi and snr are valid once known is set. Only a candidate that
	// reaches the loss draw, or a filter fallback, needs them.
	rssi, snr float64
	known     bool
	// floor: deterministically below the decode floor (no RNG draw).
	floor bool
	// collided: defeated by one of the capture check's overlaps.
	collided bool
}

// evalRx evaluates tx at candidate rx against c's overlaps: the decode-floor
// cut, the capture test and, for a candidate that passes both, rssi and
// snr. The serial loop and the prepare hook share it, so both produce the
// same decisions and the same floats.
//
// In spatial mode it draws nothing and takes no logarithm until one is
// observed. Path loss is L(d) = L0 + k·log10(max(d, 1)), k =
// 10·PathLossExponent, so the floor test snr+rej < decodeFloorSNRDB holds
// exactly when max(d², 1) > R², R² = floorRange2(P_tx) — a squared-distance
// comparison against a per-radio constant. It decides outside sqGuard's band
// and falls back to the dB expression inside it. The capture test compares
// squared distances too (overlapCollides). Only a candidate that passes both
// computes rssi, with the expression RxInfo has always reported: dot11's
// loudest-AP choice reads it, so its bits must not change.
//
// With shadowing, rxPowerDBm draws once per candidate, before the capture
// test, exactly as the flat medium does, and there is no floor.
func (m *Medium) evalRx(c *captureCheck, tx *transmission, rx *Radio, r *rxEval) {
	if !m.spatial {
		m.rssiAt(tx, rx, r)
		r.collided = m.overlapCollides(c, rx, r)
		return
	}
	dx, dy := tx.src.pos.X-rx.pos.X, tx.src.pos.Y-rx.pos.Y
	r.d2 = dx*dx + dy*dy
	switch sqCompare(max(r.d2, 1), tx.floorR2) {
	case sqAbove:
		r.floor = true
	case sqNear:
		// The floor deliberately ignores channel rejection — it is the same
		// pure distance/power cut maxDecodeRange solves for, which is what
		// makes grid pruning sound AND keeps the draw sequence for every
		// in-range radio identical to the pre-shard medium (a close radio on
		// an adjacent channel still rolls its dice, exactly as before,
		// however hopeless rejection makes them).
		m.rssiAt(tx, rx, r)
		r.floor = r.snr+channelRejectionDB(tx.channel, rx.channel) < decodeFloorSNRDB
	}
	if r.floor {
		return
	}
	if r.collided = m.overlapCollides(c, rx, r); !r.collided {
		m.rssiAt(tx, rx, r)
	}
}

// rssiAt computes r's rssi and snr unless they are already known. With
// shadowing, rxPowerDBm draws from the medium's RNG.
func (m *Medium) rssiAt(tx *transmission, rx *Radio, r *rxEval) {
	if r.known {
		return
	}
	r.rssi = m.rxPowerDBm(tx.powerDBm, tx.src.pos, rx.pos) - channelRejectionDB(tx.channel, rx.channel)
	r.snr = r.rssi - m.cfg.NoiseFloorDBm
	r.known = true
}

// floorRange2 is R² for a transmitter at powerDBm: the squared distance
// beyond which its pre-rejection SNR falls under decodeFloorSNRDB (see
// evalRx). maxDecodeRange is the same range with slack, for the grid.
func (m *Medium) floorRange2(powerDBm float64) float64 {
	exp := (powerDBm - m.cfg.ReferenceLossDB - m.cfg.NoiseFloorDBm - decodeFloorSNRDB) /
		(5 * m.cfg.PathLossExponent)
	return math.Pow(10, exp)
}

// sqGuard is the relative guard band of the log-free floor and capture
// tests: a squared-distance comparison this close to its boundary defers to
// the exact dB expression. The filters' own float error is ~1e-15 relative
// and the exact expressions' ~1e-13 dB, while 1e-9 relative in squared
// distance is ~5e-9 dB of margin at any path-loss exponent the model uses,
// so outside the band both round to the same side of the threshold.
const sqGuard = 1e-9

// Outcomes of sqCompare.
const (
	sqAbove = iota // a is clearly greater than b
	sqBelow        // a is clearly less than b
	sqNear         // inside the guard band, or no meaningful margin
)

// sqCompare compares a squared distance a with a bound b under sqGuard's
// band. An infinite or NaN operand leaves no meaningful margin and comes out
// sqNear, so the caller decides exactly.
func sqCompare(a, b float64) int {
	switch d := a - b; {
	case d > sqGuard*b:
		return sqAbove
	case d < -sqGuard*b:
		return sqBelow
	}
	return sqNear
}

// captureCheck is one candidate loop's capture context: the transmission
// being delivered, the overlaps its receivers must survive, and per
// receiver channel the list of overlaps audible on it. A completion owns one
// (the medium's for the serial loop, the txPrep's for a prepare) and calls
// begin before its candidate loop.
type captureCheck struct {
	tx       *transmission
	overlaps []*transmission
	// buf backs every channel's list: lists[ch] is buf[lists[ch].lo:hi],
	// valid once bit ch of built is set. posGen is the medium's position
	// stamp when buf was filled; the lists snapshot source positions.
	buf    []audible
	lists  [chanSlots]struct{ lo, hi int32 }
	built  uint16
	posGen uint64
	// start[ch] is the list index of the entry that last defeated a
	// receiver tuned to ch; scans begin there.
	start [chanSlots]int32
}

// audible is one overlap as heard on one receiver channel: its source
// position and its nonzero capture factor there.
type audible struct {
	o    *transmission
	x, y float64
	f    float64
}

// chanSlots sizes captureCheck's per-channel arrays: one slot per channel
// number, 0 unused.
const chanSlots = int(MaxChannel) + 1

// begin arms c for a candidate loop delivering tx against overlaps.
func (c *captureCheck) begin(tx *transmission, overlaps []*transmission) {
	c.tx, c.overlaps = tx, overlaps
	c.built = 0
	c.buf = c.buf[:0]
}

// audible returns the overlaps a receiver tuned to ch can hear, building the
// list on first use. A radio moved since the lists were built (only a
// receiver callback could do that mid-completion) drops them all.
func (c *captureCheck) audible(m *Medium, ch Channel) []audible {
	if c.posGen != m.posGen {
		c.posGen, c.built, c.buf = m.posGen, 0, c.buf[:0]
	}
	bit := uint16(1) << uint(ch)
	if c.built&bit == 0 {
		lo := len(c.buf)
		for _, o := range c.overlaps {
			if f := m.captureFactor(c.tx, o, ch); f != 0 {
				c.buf = append(c.buf, audible{o: o, x: o.src.pos.X, y: o.src.pos.Y, f: f})
			}
		}
		c.lists[ch].lo, c.lists[ch].hi = int32(lo), int32(len(c.buf))
		c.start[ch] = 0
		c.built |= bit
	}
	l := c.lists[ch]
	return c.buf[l.lo:l.hi]
}

// overlapCollides reports whether any of c's overlaps is loud enough at rx
// to defeat capture of c.tx, received at r. No RNG, no counters, and no
// writes beyond c's lists and r's lazy rssi — the same predicate serves the
// serial path, the prepare hook (prefix), and the commit-time fold
// (suffix). The early return is sound for the same reason the prefix/suffix
// split is: only the OR is observable.
//
// Without shadowing, rssi is exactly P_tx − L(d_tx) − rej_tx, so
// overlapDefeats' test rssi − op < C holds exactly when
//
//	max(d_o², 1) < max(d_tx², 1) · 10^(2Δ/k),  Δ = C + P_o − P_tx + rej_tx − rej_o.
//
// That compares squared distances against a factor fixed per (overlap,
// receiver channel), with no logarithm or square root per receiver. Inside
// sqGuard of the boundary it falls back to overlapDefeats, computing rssi on
// demand, so every decision equals the exact expression's. The scan walks
// rx's channel list only — overlaps orthogonal to it are not on it — and
// starts at the entry that last defeated a receiver on that channel; the
// order is free because only the OR is observable. Shadowed media add a
// random term to rssi and always take the exact path.
func (m *Medium) overlapCollides(c *captureCheck, rx *Radio, r *rxEval) bool {
	if !m.spatial {
		for _, o := range c.overlaps {
			if m.overlapDefeats(o, rx, r.rssi) {
				return true
			}
		}
		return false
	}
	if len(c.overlaps) == 0 {
		return false
	}
	list := c.audible(m, rx.channel)
	start := c.start[rx.channel]
	if k := m.firstDefeat(c.tx, list[start:], rx, r); k >= 0 {
		c.start[rx.channel] = start + int32(k)
		return true
	}
	if k := m.firstDefeat(c.tx, list[:start], rx, r); k >= 0 {
		c.start[rx.channel] = int32(k)
		return true
	}
	return false
}

// firstDefeat returns the index of the first entry in list that defeats
// capture of tx at rx, or -1.
func (m *Medium) firstDefeat(tx *transmission, list []audible, rx *Radio, r *rxEval) int {
	dtx2 := max(r.d2, 1)
	for k := range list {
		e := &list[k]
		dx, dy := e.x-rx.pos.X, e.y-rx.pos.Y
		switch sqCompare(max(dx*dx+dy*dy, 1), dtx2*e.f) {
		case sqBelow:
			return k
		case sqNear:
			m.rssiAt(tx, rx, r)
			if m.overlapDefeats(e.o, rx, r.rssi) {
				return k
			}
		}
	}
	return -1
}

// captureFactor is 10^(2Δ/k) for overlap o against tx at a receiver tuned
// to ch (see overlapCollides), or 0 when o's channel is orthogonal to ch: an
// overlap the receiver cannot hear never defeats capture. It splits into a
// channel part and a power part,
//
//	10^(2Δ/k) = chanFactor[|tx.ch − ch|][|o.ch − ch|] · 10^(2P_o/k) / 10^(2P_tx/k),
//
// and the power part is the ratio of the two floor ranges R² (floorRange2),
// whose common term cancels. All of it is precomputed; the product costs a
// few ulps against one math.Pow, far inside sqGuard, whose band absorbs
// any factor error under ~1e-10.
func (m *Medium) captureFactor(tx, o *transmission, ch Channel) float64 {
	b := chanDistance(o.channel, ch)
	if b >= len(m.chanFactor[0]) {
		return 0
	}
	return m.chanFactor[chanDistance(tx.channel, ch)][b] * o.floorR2 / tx.floorR2
}

// chanDistance is |a − b| in channel numbers.
func chanDistance(a, b Channel) int {
	if a < b {
		return int(b - a)
	}
	return int(a - b)
}

// overlapDefeats is the exact capture predicate: o, heard at rx after
// channel rejection, comes within the capture threshold of a frame received
// at rssi.
func (m *Medium) overlapDefeats(o *transmission, rx *Radio, rssi float64) bool {
	orej := channelRejectionDB(o.channel, rx.channel)
	if math.IsInf(orej, 1) {
		return false
	}
	op := o.powerDBm - m.pathLossDB(o.src.pos, rx.pos) - orej
	return rssi-op < m.cfg.CaptureThresholdDB
}

// retire marks tx finished and recycles every transmission that is no longer
// referenced: tx itself, and any overlap partner whose last pin this was.
func (m *Medium) retire(tx *transmission) {
	tx.done = true
	for _, o := range tx.overlaps {
		o.pins--
		if o.done && o.pins == 0 {
			m.putTx(o)
		}
	}
	if tx.pins == 0 {
		m.putTx(tx)
	}
}

// frameSurvives applies the SNR/size loss model: a logistic per-frame success
// curve centred on the rate's required SNR, sharpened for larger frames.
func (m *Medium) frameSurvives(snr float64, size int, rate Rate) bool {
	margin := snr - rate.requiredSNR()
	pBit := 1 / (1 + math.Exp(-margin*1.2)) // per-"block" success
	// Longer frames face more chances to be hit; normalise to 256-byte blocks.
	blocks := float64(size)/256 + 1
	pFrame := math.Pow(pBit, blocks)
	return m.rng.Bool(pFrame)
}

// SNRAt reports the SNR a receiver at pos would see from a transmitter —
// used by topology builders to sanity-check placements.
func (m *Medium) SNRAt(txPower float64, txPos, rxPos Position) float64 {
	return txPower - m.pathLossDB(txPos, rxPos) - m.cfg.NoiseFloorDBm
}

// SNRAtDistance reports the deterministic (no-shadowing) SNR d metres from a
// transmitter at txPower dBm under this config; zero-value fields take their
// defaults. It needs no Medium — topology generators use it to validate a
// layout's connectivity before any kernel exists.
func (c Config) SNRAtDistance(txPower, d float64) float64 {
	c.fill()
	if d < 1 {
		d = 1
	}
	return txPower - (c.ReferenceLossDB + 10*c.PathLossExponent*math.Log10(d)) - c.NoiseFloorDBm
}

// DefaultTxPowerDBm is the transmit power AddRadio assigns when RadioConfig
// leaves it zero.
const DefaultTxPowerDBm = defaultTxPowerDBm

// Radios returns the attached radios (for inspection in tests and tools).
func (m *Medium) Radios() []*Radio { return m.radios }
