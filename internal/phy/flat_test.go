package phy

import (
	"math"

	"repro/internal/sim"
)

// flatMedium is the pre-shard medium's delivery path, kept in test code as
// the reference the sharded medium is pinned against: every transmission is
// evaluated against every attached radio in attach order — no channel
// shards, no grid, no decode floor — with the capture test in its original
// dB form. TestShardedMatchesUnshardedDigest drives it and the production
// medium through identical traffic; BenchmarkMediumBroadcastUnsharded
// measures it as the O(radios) floor.
//
// It borrows a production Medium for what the two share by construction:
// the config, the forked RNG, the loss-model formulas, and the radios
// (positions, channels, receivers, counters). Neither the Medium's index nor
// its transmission pool is touched.
type flatMedium struct {
	m      *Medium
	active []*flatTx
}

type flatTx struct {
	src        *Radio
	channel    Channel
	start, end sim.Time
	powerDBm   float64
	data       []byte
	rate       Rate
	air        sim.Time
	overlaps   []*flatTx
}

// send transmits data from r, the reference counterpart of Radio.Send.
func (f *flatMedium) send(r *Radio, data []byte, rate Rate) sim.Time {
	m := f.m
	now := m.kernel.Now()
	air := Airtime(len(data), rate)
	if r.down {
		r.TxWhileDown++
		return now + air
	}
	start := max(now, r.sendBusy)
	end := start + air
	r.sendBusy = end
	r.TxFrames++
	m.Transmissions++
	tx := &flatTx{
		src: r, channel: r.channel, start: start, end: end,
		powerDBm: r.txPower, data: data, rate: rate, air: air,
	}
	for _, t := range f.active {
		if t.end > start && t.start < end {
			t.overlaps = append(t.overlaps, tx)
			tx.overlaps = append(tx.overlaps, t)
		}
	}
	f.active = append(f.active, tx)
	m.kernel.Schedule(end, func() { f.complete(tx) })
	return end
}

// complete evaluates tx at every attached radio in attach order.
func (f *flatMedium) complete(tx *flatTx) {
	m := f.m
	now := m.kernel.Now()
	kept := f.active[:0]
	for _, t := range f.active {
		if t != tx && t.end > now {
			kept = append(kept, t)
		}
	}
	clear(f.active[len(kept):])
	f.active = kept
	for _, rx := range m.radios {
		if rx == tx.src || rx.down || rx.recv == nil {
			continue
		}
		rej := channelRejectionDB(tx.channel, rx.channel)
		if math.IsInf(rej, 1) {
			continue
		}
		rssi := m.rxPowerDBm(tx.powerDBm, tx.src.pos, rx.pos) - rej
		snr := rssi - m.cfg.NoiseFloorDBm
		collided := false
		for _, o := range tx.overlaps {
			orej := channelRejectionDB(o.channel, rx.channel)
			if math.IsInf(orej, 1) {
				continue
			}
			op := o.powerDBm - m.pathLossDB(o.src.pos, rx.pos) - orej
			if rssi-op < m.cfg.CaptureThresholdDB {
				collided = true
				break
			}
		}
		if collided {
			rx.RxCollisions++
			m.Collisions++
			continue
		}
		if !m.frameSurvives(snr, len(tx.data), tx.rate) {
			rx.RxBelowSNR++
			m.SNRDrops++
			continue
		}
		rx.RxFrames++
		m.Deliveries++
		m.kernel.MixDigest(rx.digestLabel, tx.data)
		rx.recv(tx.data, RxInfo{
			Channel: tx.channel, RSSIDBm: rssi, SNRDB: snr,
			Rate: tx.rate, At: now, Airtime: tx.air, Src: tx.src,
		})
	}
}
