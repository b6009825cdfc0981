package phy

import (
	"math"
	"slices"
	"testing"

	"repro/internal/sim"
)

func newTestMedium(seed uint64) (*sim.Kernel, *Medium) {
	k := sim.NewKernel(seed)
	return k, NewMedium(k, Config{})
}

func TestChannelValid(t *testing.T) {
	if Channel(0).Valid() || Channel(12).Valid() {
		t.Error("out-of-range channel accepted")
	}
	if !Channel(1).Valid() || !Channel(6).Valid() || !Channel(11).Valid() {
		t.Error("valid channel rejected")
	}
}

func TestRateString(t *testing.T) {
	if Rate11Mbps.String() != "11Mbps" || Rate5Mbps.String() != "5.5Mbps" {
		t.Error("rate names")
	}
}

func TestAirtime(t *testing.T) {
	// 1000 bytes at 1 Mb/s = 8000 µs + 192 µs preamble.
	if got := Airtime(1000, Rate1Mbps); got != 8192*sim.Microsecond {
		t.Fatalf("airtime = %v", got)
	}
	// Higher rate, shorter airtime.
	if Airtime(1000, Rate11Mbps) >= Airtime(1000, Rate1Mbps) {
		t.Fatal("11 Mb/s not faster than 1 Mb/s")
	}
}

func TestPositionDistance(t *testing.T) {
	if d := (Position{0, 0}).DistanceTo(Position{3, 4}); d != 5 {
		t.Fatalf("distance = %v", d)
	}
}

func TestNearbyRadiosDeliver(t *testing.T) {
	k, m := newTestMedium(1)
	a := m.AddRadio(RadioConfig{Name: "a", Pos: Position{0, 0}, Channel: 1})
	b := m.AddRadio(RadioConfig{Name: "b", Pos: Position{5, 0}, Channel: 1})
	var got []byte
	b.SetReceiver(func(data []byte, info RxInfo) { got = append([]byte{}, data...) })
	a.Send([]byte("beacon"), Rate11Mbps)
	k.Run()
	if string(got) != "beacon" {
		t.Fatalf("got %q", got)
	}
	if a.TxFrames != 1 || b.RxFrames != 1 {
		t.Fatal("counters")
	}
}

func TestSenderDoesNotHearItself(t *testing.T) {
	k, m := newTestMedium(1)
	a := m.AddRadio(RadioConfig{Name: "a", Pos: Position{0, 0}, Channel: 1})
	heard := false
	a.SetReceiver(func(data []byte, info RxInfo) { heard = true })
	a.Send([]byte("x"), Rate1Mbps)
	k.Run()
	if heard {
		t.Fatal("radio received its own transmission")
	}
}

func TestDifferentChannelIsolation(t *testing.T) {
	k, m := newTestMedium(1)
	a := m.AddRadio(RadioConfig{Name: "a", Pos: Position{0, 0}, Channel: 1})
	b := m.AddRadio(RadioConfig{Name: "b", Pos: Position{5, 0}, Channel: 6})
	heard := false
	b.SetReceiver(func(data []byte, info RxInfo) { heard = true })
	a.Send([]byte("x"), Rate1Mbps)
	k.Run()
	if heard {
		t.Fatal("channel-6 radio heard channel-1 frame (separation 5 must be orthogonal)")
	}
}

func TestAdjacentChannelLeakage(t *testing.T) {
	// Channels 1 and 2 overlap: a very close radio still hears, attenuated.
	k, m := newTestMedium(1)
	a := m.AddRadio(RadioConfig{Name: "a", Pos: Position{0, 0}, Channel: 1})
	b := m.AddRadio(RadioConfig{Name: "b", Pos: Position{1, 0}, Channel: 2})
	var rssiAdj float64
	b.SetReceiver(func(data []byte, info RxInfo) { rssiAdj = info.RSSIDBm })
	a.Send([]byte("x"), Rate1Mbps)
	k.Run()
	if rssiAdj == 0 {
		t.Fatal("adjacent channel heard nothing at 1 m")
	}
	// Same-channel RSSI for comparison.
	b.SetChannel(1)
	var rssiSame float64
	b.SetReceiver(func(data []byte, info RxInfo) { rssiSame = info.RSSIDBm })
	a.Send([]byte("x"), Rate1Mbps)
	k.Run()
	if math.Abs((rssiSame-rssiAdj)-12) > 0.01 {
		t.Fatalf("adjacent rejection = %v dB, want 12", rssiSame-rssiAdj)
	}
}

func TestDistantRadioDrops(t *testing.T) {
	// A 10 km radio sits far outside the decode range: the spatial grid
	// prunes it before the loss model ever evaluates it, so it hears
	// nothing and costs nothing.
	k, m := newTestMedium(1)
	a := m.AddRadio(RadioConfig{Name: "a", Pos: Position{0, 0}, Channel: 1})
	b := m.AddRadio(RadioConfig{Name: "b", Pos: Position{10000, 0}, Channel: 1})
	heard := 0
	b.SetReceiver(func(data []byte, info RxInfo) { heard++ })
	for i := 0; i < 50; i++ {
		a.Send([]byte("x"), Rate11Mbps)
	}
	k.Run()
	if heard != 0 {
		t.Fatalf("10 km radio heard %d frames", heard)
	}
}

func TestDecodeFloorSkipsWithoutDraw(t *testing.T) {
	// A radio inside the grid's candidate rectangle but below the decode
	// floor (SNR more than 12 dB under the rate's requirement) is counted
	// as an SNR drop without consuming an RNG draw: two mediums, one with
	// and one without the marginal radio, must keep identical RNG streams.
	run := func(withEdge bool) uint64 {
		k, m := newTestMedium(9)
		a := m.AddRadio(RadioConfig{Name: "a", Pos: Position{0, 0}, Channel: 1})
		b := m.AddRadio(RadioConfig{Name: "b", Pos: Position{100, 0}, Channel: 1})
		b.SetReceiver(func(data []byte, info RxInfo) {})
		if withEdge {
			// 500 m: beyond maxDecodeRange(15 dBm) ≈ 402 m but still inside
			// the conservative cell rectangle (cell edge ≈ 402 m), so the
			// grid hands it to the delivery loop and the floor — not the
			// grid — must reject it, without an RNG draw.
			e := m.AddRadio(RadioConfig{Name: "edge", Pos: Position{500, 0}, Channel: 1})
			e.SetReceiver(func(data []byte, info RxInfo) {})
		}
		for i := 0; i < 100; i++ {
			a.Send(make([]byte, 500), Rate11Mbps)
		}
		k.Run()
		if withEdge {
			edge := m.Radios()[2]
			if edge.RxBelowSNR != 100 {
				t.Fatalf("edge radio RxBelowSNR = %d, want 100", edge.RxBelowSNR)
			}
		}
		return b.RxFrames
	}
	if with, without := run(true), run(false); with != without {
		t.Fatalf("edge radio changed the in-range radio's loss pattern: %d vs %d deliveries", with, without)
	}
}

func TestShardedMatchesUnshardedDigest(t *testing.T) {
	// Differential check: with all radios inside decode range, the sharded
	// medium must reproduce the flat reference scan (flat_test.go) exactly
	// — same candidates, same order, same draws, same capture decisions.
	// The digest mixes frame bytes only, so the check also compares every
	// delivery's receiver and RxInfo floats bit for bit (dot11's loudest-AP
	// choice reads RSSIDBm) and every radio's reception counters, and
	// requires those counters to sum to the medium's. Run with and without
	// shadowing (shadowing adds a per-candidate draw and disables pruning).
	type delivery struct {
		rx        int
		rssi, snr uint64
	}
	type outcome struct {
		digest     uint64
		deliveries []delivery
		counters   [][3]uint64
	}
	for _, sigma := range []float64{0, 3} {
		outcomes := map[bool]outcome{}
		for _, unsharded := range []bool{false, true} {
			k := sim.NewKernel(7)
			m := NewMedium(k, Config{ShadowingSigmaDB: sigma})
			send := (*Radio).Send
			if unsharded {
				send = (&flatMedium{m: m}).send
			}
			var got outcome
			radios := make([]*Radio, 0, 30)
			for i := 0; i < 30; i++ {
				ch := Channel(1 + 5*(i%3)) // channels 1/6/11
				r := m.AddRadio(RadioConfig{
					Name:    "r",
					Pos:     Position{float64(i%6) * 30, float64(i/6) * 30},
					Channel: ch,
				})
				i := i
				r.SetReceiver(func(data []byte, info RxInfo) {
					got.deliveries = append(got.deliveries, delivery{
						rx: i, rssi: math.Float64bits(info.RSSIDBm), snr: math.Float64bits(info.SNRDB),
					})
				})
				radios = append(radios, r)
			}
			for round := 0; round < 20; round++ {
				src := radios[(round*7)%len(radios)]
				send(src, make([]byte, 200+round), Rate11Mbps)
				if round%2 == 1 {
					// A concurrent sender: overlapping frames exercise the
					// capture test against the reference's dB form.
					send(radios[(round*11+3)%len(radios)], make([]byte, 300), Rate11Mbps)
				}
				k.RunFor(5 * sim.Millisecond)
			}
			k.Run()
			if m.Collisions == 0 || m.Deliveries == 0 {
				t.Fatalf("sigma=%v unsharded=%v: %d collisions, %d deliveries — want both exercised",
					sigma, unsharded, m.Collisions, m.Deliveries)
			}
			var sum [3]uint64
			for _, r := range radios {
				c := [3]uint64{r.RxFrames, r.RxCollisions, r.RxBelowSNR}
				got.counters = append(got.counters, c)
				for j := range sum {
					sum[j] += c[j]
				}
			}
			if want := [3]uint64{m.Deliveries, m.Collisions, m.SNRDrops}; sum != want {
				t.Fatalf("sigma=%v unsharded=%v: per-radio frames/collisions/below-SNR sum to %v, medium counts %v",
					sigma, unsharded, sum, want)
			}
			got.digest = k.Digest()
			outcomes[unsharded] = got
		}
		sharded, flat := outcomes[false], outcomes[true]
		if sharded.digest != flat.digest {
			t.Fatalf("sigma=%v: sharded digest %016x != unsharded %016x", sigma, sharded.digest, flat.digest)
		}
		if !slices.Equal(sharded.deliveries, flat.deliveries) {
			t.Fatalf("sigma=%v: sharded deliveries (receiver, RSSI, SNR bits) differ from unsharded:\n%v\n%v",
				sigma, sharded.deliveries, flat.deliveries)
		}
		if !slices.Equal(sharded.counters, flat.counters) {
			t.Fatalf("sigma=%v: per-radio frames/collisions/below-SNR differ:\nsharded   %v\nunsharded %v",
				sigma, sharded.counters, flat.counters)
		}
	}
}

func TestShardMigration(t *testing.T) {
	// Channel and position changes migrate radios between shards and grid
	// cells: a retuned radio hears its new channel and not its old one.
	k, m := newTestMedium(1)
	a := m.AddRadio(RadioConfig{Name: "a", Pos: Position{0, 0}, Channel: 1})
	b := m.AddRadio(RadioConfig{Name: "b", Pos: Position{5, 0}, Channel: 11})
	heard := 0
	b.SetReceiver(func(data []byte, info RxInfo) { heard++ })
	a.Send([]byte("x"), Rate11Mbps)
	k.Run()
	if heard != 0 {
		t.Fatal("channel-11 radio heard channel 1")
	}
	b.SetChannel(1)
	a.Send([]byte("x"), Rate11Mbps)
	k.Run()
	if heard != 1 {
		t.Fatalf("retuned radio heard %d frames, want 1", heard)
	}
	// Move b far out of range (crossing many grid cells), then back.
	b.SetPosition(Position{5000, 5000})
	a.Send([]byte("x"), Rate11Mbps)
	k.Run()
	if heard != 1 {
		t.Fatal("out-of-range radio still hearing frames after move")
	}
	b.SetPosition(Position{5, 0})
	a.Send([]byte("x"), Rate11Mbps)
	k.Run()
	if heard != 2 {
		t.Fatalf("returned radio heard %d frames, want 2", heard)
	}
}

func TestRSSIDecreasesWithDistance(t *testing.T) {
	k, m := newTestMedium(1)
	a := m.AddRadio(RadioConfig{Name: "a", Pos: Position{0, 0}, Channel: 1})
	near := m.AddRadio(RadioConfig{Name: "n", Pos: Position{2, 0}, Channel: 1})
	far := m.AddRadio(RadioConfig{Name: "f", Pos: Position{20, 0}, Channel: 1})
	var rssiNear, rssiFar float64
	near.SetReceiver(func(data []byte, info RxInfo) { rssiNear = info.RSSIDBm })
	far.SetReceiver(func(data []byte, info RxInfo) { rssiFar = info.RSSIDBm })
	a.Send([]byte("x"), Rate1Mbps)
	k.Run()
	if rssiNear <= rssiFar {
		t.Fatalf("near RSSI %v <= far RSSI %v", rssiNear, rssiFar)
	}
	// Log-distance: 10x distance at exponent 3 = 30 dB.
	if math.Abs((rssiNear-rssiFar)-30) > 0.01 {
		t.Fatalf("10x distance attenuation = %v dB, want 30", rssiNear-rssiFar)
	}
}

func TestBroadcastNature(t *testing.T) {
	// The paper's core observation: everyone in range hears everything.
	k, m := newTestMedium(1)
	a := m.AddRadio(RadioConfig{Name: "a", Pos: Position{0, 0}, Channel: 1})
	heard := 0
	for i := 0; i < 5; i++ {
		r := m.AddRadio(RadioConfig{Pos: Position{float64(i + 1), 0}, Channel: 1})
		r.SetReceiver(func(data []byte, info RxInfo) { heard++ })
	}
	a.Send([]byte("secret"), Rate11Mbps)
	k.Run()
	if heard != 5 {
		t.Fatalf("%d/5 radios heard the frame", heard)
	}
}

func TestCollisionDropsBoth(t *testing.T) {
	k, m := newTestMedium(1)
	// Two senders equidistant from the receiver transmit simultaneously at
	// equal power: neither captures.
	s1 := m.AddRadio(RadioConfig{Name: "s1", Pos: Position{-5, 0}, Channel: 1})
	s2 := m.AddRadio(RadioConfig{Name: "s2", Pos: Position{5, 0}, Channel: 1})
	rx := m.AddRadio(RadioConfig{Name: "rx", Pos: Position{0, 0}, Channel: 1})
	heard := 0
	rx.SetReceiver(func(data []byte, info RxInfo) { heard++ })
	s1.Send(make([]byte, 500), Rate11Mbps)
	s2.Send(make([]byte, 500), Rate11Mbps)
	k.Run()
	if heard != 0 {
		t.Fatalf("receiver decoded %d frames during collision", heard)
	}
	if rx.RxCollisions != 2 {
		t.Fatalf("RxCollisions = %d, want 2", rx.RxCollisions)
	}
}

func TestCaptureEffect(t *testing.T) {
	k, m := newTestMedium(1)
	// A much closer sender captures over a distant interferer.
	strong := m.AddRadio(RadioConfig{Name: "strong", Pos: Position{1, 0}, Channel: 1})
	weak := m.AddRadio(RadioConfig{Name: "weak", Pos: Position{50, 0}, Channel: 1})
	rx := m.AddRadio(RadioConfig{Name: "rx", Pos: Position{0, 0}, Channel: 1})
	var decoded []string
	rx.SetReceiver(func(data []byte, info RxInfo) { decoded = append(decoded, string(data)) })
	strong.Send([]byte("strong"), Rate11Mbps)
	weak.Send([]byte("weak!!"), Rate11Mbps)
	k.Run()
	if len(decoded) != 1 || decoded[0] != "strong" {
		t.Fatalf("decoded %v, want [strong] only", decoded)
	}
}

func TestNonOverlappingNoCollision(t *testing.T) {
	k, m := newTestMedium(1)
	s1 := m.AddRadio(RadioConfig{Name: "s1", Pos: Position{-5, 0}, Channel: 1})
	s2 := m.AddRadio(RadioConfig{Name: "s2", Pos: Position{5, 0}, Channel: 1})
	rx := m.AddRadio(RadioConfig{Name: "rx", Pos: Position{0, 0}, Channel: 1})
	heard := 0
	rx.SetReceiver(func(data []byte, info RxInfo) { heard++ })
	s1.Send(make([]byte, 100), Rate11Mbps)
	k.After(10*sim.Millisecond, func() { s2.Send(make([]byte, 100), Rate11Mbps) })
	k.Run()
	if heard != 2 {
		t.Fatalf("heard %d frames, want 2", heard)
	}
}

func TestOwnTransmissionsSerialise(t *testing.T) {
	k, m := newTestMedium(1)
	a := m.AddRadio(RadioConfig{Name: "a", Pos: Position{0, 0}, Channel: 1})
	b := m.AddRadio(RadioConfig{Name: "b", Pos: Position{2, 0}, Channel: 1})
	var times []sim.Time
	b.SetReceiver(func(data []byte, info RxInfo) { times = append(times, k.Now()) })
	a.Send(make([]byte, 100), Rate1Mbps) // 992 µs
	a.Send(make([]byte, 100), Rate1Mbps)
	k.Run()
	if len(times) != 2 {
		t.Fatalf("heard %d, want 2 (same-radio frames must queue, not collide)", len(times))
	}
	if times[1]-times[0] != Airtime(100, Rate1Mbps) {
		t.Fatalf("gap %v, want %v", times[1]-times[0], Airtime(100, Rate1Mbps))
	}
}

func TestCarrierSense(t *testing.T) {
	k, m := newTestMedium(1)
	a := m.AddRadio(RadioConfig{Name: "a", Pos: Position{0, 0}, Channel: 1})
	b := m.AddRadio(RadioConfig{Name: "b", Pos: Position{5, 0}, Channel: 1})
	farAway := m.AddRadio(RadioConfig{Name: "far", Pos: Position{10000, 0}, Channel: 1})
	otherCh := m.AddRadio(RadioConfig{Name: "och", Pos: Position{5, 0}, Channel: 6})
	if b.CarrierBusy() {
		t.Fatal("busy before any transmission")
	}
	a.Send(make([]byte, 1000), Rate1Mbps)
	k.After(time100us(), func() {
		if !b.CarrierBusy() {
			t.Error("nearby radio does not sense carrier")
		}
		if farAway.CarrierBusy() {
			t.Error("10 km radio senses carrier")
		}
		if otherCh.CarrierBusy() {
			t.Error("orthogonal channel senses carrier")
		}
	})
	k.Run()
	if b.CarrierBusy() {
		t.Fatal("busy after transmission ended")
	}
}

func time100us() sim.Time { return 100 * sim.Microsecond }

func TestSNRAtMatchesModel(t *testing.T) {
	_, m := newTestMedium(1)
	// 15 dBm - (40 + 30*log10(10)) = 15-70 = -55 dBm; SNR = -55+95 = 40 dB.
	got := m.SNRAt(15, Position{0, 0}, Position{10, 0})
	if math.Abs(got-40) > 0.01 {
		t.Fatalf("SNR = %v, want 40", got)
	}
}

func TestLossIncreasesWithDistance(t *testing.T) {
	k, m := newTestMedium(7)
	a := m.AddRadio(RadioConfig{Name: "a", Pos: Position{0, 0}, Channel: 1})
	// Position a receiver near its sensitivity edge: required SNR 10 at
	// 11 Mb/s, SNR(d) = 70 - 30 log10(d); SNR=10 → d ≈ 100 m.
	edge := m.AddRadio(RadioConfig{Name: "edge", Pos: Position{100, 0}, Channel: 1})
	near := m.AddRadio(RadioConfig{Name: "near", Pos: Position{5, 0}, Channel: 1})
	edgeHeard, nearHeard := 0, 0
	edge.SetReceiver(func(data []byte, info RxInfo) { edgeHeard++ })
	near.SetReceiver(func(data []byte, info RxInfo) { nearHeard++ })
	const n = 200
	for i := 0; i < n; i++ {
		a.Send(make([]byte, 500), Rate11Mbps)
	}
	k.Run()
	if nearHeard != n {
		t.Fatalf("near radio heard %d/%d", nearHeard, n)
	}
	if edgeHeard == 0 || edgeHeard == n {
		t.Fatalf("edge radio heard %d/%d, want lossy but nonzero", edgeHeard, n)
	}
}

func TestInvalidChannelPanics(t *testing.T) {
	_, m := newTestMedium(1)
	defer func() {
		if recover() == nil {
			t.Error("invalid channel accepted")
		}
	}()
	m.AddRadio(RadioConfig{Channel: 13})
}

func TestSetChannelInvalidPanics(t *testing.T) {
	_, m := newTestMedium(1)
	r := m.AddRadio(RadioConfig{Channel: 1})
	defer func() {
		if recover() == nil {
			t.Error("invalid SetChannel accepted")
		}
	}()
	r.SetChannel(0)
}

func TestRxInfoFields(t *testing.T) {
	k, m := newTestMedium(1)
	a := m.AddRadio(RadioConfig{Name: "a", Pos: Position{0, 0}, Channel: 3})
	b := m.AddRadio(RadioConfig{Name: "b", Pos: Position{5, 0}, Channel: 3})
	var info RxInfo
	b.SetReceiver(func(data []byte, i RxInfo) { info = i })
	a.Send(make([]byte, 200), Rate2Mbps)
	k.Run()
	if info.Channel != 3 || info.Rate != Rate2Mbps || info.Src != a {
		t.Fatalf("info = %+v", info)
	}
	if info.Airtime != Airtime(200, Rate2Mbps) {
		t.Fatal("airtime mismatch")
	}
	if info.SNRDB <= 0 {
		t.Fatal("SNR not positive at 5 m")
	}
}

func TestShadowingAddsVariance(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewMedium(k, Config{ShadowingSigmaDB: 6})
	a := m.AddRadio(RadioConfig{Name: "a", Pos: Position{0, 0}, Channel: 1})
	b := m.AddRadio(RadioConfig{Name: "b", Pos: Position{10, 0}, Channel: 1})
	rssis := map[float64]bool{}
	b.SetReceiver(func(data []byte, info RxInfo) { rssis[info.RSSIDBm] = true })
	for i := 0; i < 20; i++ {
		a.Send([]byte("x"), Rate1Mbps)
	}
	k.Run()
	if len(rssis) < 10 {
		t.Fatalf("shadowing produced only %d distinct RSSIs", len(rssis))
	}
}

func TestMediumStats(t *testing.T) {
	k, m := newTestMedium(1)
	a := m.AddRadio(RadioConfig{Name: "a", Pos: Position{0, 0}, Channel: 1})
	b := m.AddRadio(RadioConfig{Name: "b", Pos: Position{5, 0}, Channel: 1})
	b.SetReceiver(func(data []byte, info RxInfo) {})
	a.Send([]byte("x"), Rate11Mbps)
	k.Run()
	if m.Transmissions != 1 || m.Deliveries != 1 {
		t.Fatalf("stats tx=%d rx=%d", m.Transmissions, m.Deliveries)
	}
}

func BenchmarkMediumBroadcast10Radios(b *testing.B) {
	k, m := newTestMedium(1)
	a := m.AddRadio(RadioConfig{Name: "a", Pos: Position{0, 0}, Channel: 1})
	for i := 0; i < 10; i++ {
		r := m.AddRadio(RadioConfig{Pos: Position{float64(i + 1), 0}, Channel: 1})
		r.SetReceiver(func(data []byte, info RxInfo) {})
	}
	payload := make([]byte, 1500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Send(payload, Rate11Mbps)
		k.Run()
	}
}
