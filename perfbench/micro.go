package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/dot11"
	"repro/internal/ethernet"
	"repro/internal/inet"
	"repro/internal/ipv4"
	"repro/internal/netsed"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/wep"
)

// Isolated hot paths, timed by calling each layer's public entry points
// directly. Each is reported as the median of several batches, each batch
// sized to take at least microBatch of CPU time.

const (
	microBatch   = 5 * time.Millisecond
	microBatches = 7
)

// sink keeps results alive so the compiler cannot drop the timed calls.
var sink int

func (b *bench) reportMicro() {
	b.set("phy.broadcast_ns.r64", broadcastNs(64), "ns")
	b.set("phy.broadcast_ns.r1024", broadcastNs(1024), "ns")

	key := wep.Key40FromString("SECRET")
	plain := make([]byte, 1500)
	for i := range plain {
		plain[i] = byte(i)
	}
	b.set("wep.seal_ns.b1500", nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			sink += len(wep.Seal(key, wep.IVFromUint32(uint32(i)), 0, plain))
		}
	}), "ns")
	sealed := wep.Seal(key, wep.IVFromUint32(7), 0, plain)
	b.set("wep.open_ns.b1500", nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			out, err := wep.Open(key, sealed)
			if err != nil {
				panic(err)
			}
			sink += len(out)
		}
	}), "ns")

	frame := (&dot11.Frame{
		Type: dot11.TypeData, ToDS: true,
		Addr1: ethernet.MAC{2, 0, 0, 0, 0, 1}, Addr2: ethernet.MAC{2, 0, 0, 0, 0, 2},
		Addr3: ethernet.MAC{2, 0, 0, 0, 0, 3}, Body: plain,
	}).Marshal()
	b.set("dot11.unmarshal_ns", nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			f, err := dot11.Unmarshal(frame)
			if err != nil {
				panic(err)
			}
			sink += len(f.Body)
		}
	}), "ns")

	packet := (&ipv4.Packet{
		TTL: 64, Proto: ipv4.ProtoTCP,
		Src: inet.MustParseAddr("10.0.0.3"), Dst: inet.MustParseAddr("198.18.0.80"),
		Payload: plain[:1480],
	}).Marshal()
	b.set("ipv4.unmarshal_ns", nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			p, err := ipv4.Unmarshal(packet)
			if err != nil {
				panic(err)
			}
			sink += len(p.Payload)
		}
	}), "ns")

	b.set("inet.checksum_ns.b1500", nsPerOp(func(n int) {
		for i := 0; i < n; i++ {
			sink += int(inet.Checksum(plain))
		}
	}), "ns")

	b.set("netsed.rewrite_ns_per_kb", netsedNsPerKB(), "ns")
	b.set("sim.schedule_fire_ns", scheduleFireNs(), "ns")
}

// nsPerOp calibrates a batch size n so op(n) takes at least microBatch, then
// returns the median ns per operation over microBatches batches.
func nsPerOp(op func(n int)) float64 {
	n := 1
	for {
		t := cpuClock()
		op(n)
		if cpuClock()-t >= microBatch {
			break
		}
		n *= 2
	}
	per := make([]float64, microBatches)
	for i := range per {
		t := cpuClock()
		op(n)
		per[i] = float64((cpuClock() - t).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// broadcastNs is one 512-byte transmission plus its delivery fan-out on a
// medium of n radios on a 90 m grid cycling the 1/6/11 plan, senders
// rotating through the population (phy.Medium.AddRadio + Radio.Send +
// Kernel.RunFor).
func broadcastNs(n int) float64 {
	k := sim.NewKernel(1)
	m := phy.NewMedium(k, phy.Config{})
	side := int(math.Ceil(math.Sqrt(float64(n))))
	plan := [3]phy.Channel{1, 6, 11}
	radios := make([]*phy.Radio, n)
	for i := range radios {
		radios[i] = m.AddRadio(phy.RadioConfig{
			Name:    fmt.Sprintf("r%d", i),
			Pos:     phy.Position{X: float64(i%side) * 90, Y: float64(i/side) * 90},
			Channel: plan[i%3],
		})
		radios[i].SetReceiver(func(data []byte, info phy.RxInfo) { sink += len(data) })
	}
	payload := make([]byte, 512)
	next := 0
	return nsPerOp(func(ops int) {
		for i := 0; i < ops; i++ {
			radios[next%n].Send(payload, phy.Rate11Mbps)
			next++
			k.RunFor(sim.Millisecond)
		}
	})
}

// netsedNsPerKB streams 1 KB chunks of page-like text through a fresh
// boundary-safe rewriter carrying the paper's two rules (link and MD5).
func netsedNsPerKB() float64 {
	var rules []*netsed.Rule
	for _, s := range []string{
		"s/href=file.tgz/href=http:%2f%2f10.0.0.201%2ftrojan.tgz",
		"s/0123456789abcdef0123456789abcdef/fedcba9876543210fedcba9876543210",
	} {
		r, err := netsed.ParseRule(s)
		if err != nil {
			panic(err)
		}
		rules = append(rules, r)
	}
	chunk := make([]byte, 1024)
	const text = "<p>release notes, mirrors and checksums for the download</p>\n"
	for i := range chunk {
		chunk[i] = text[i%len(text)]
	}
	return nsPerOp(func(n int) {
		rw := netsed.NewStreamRewriter(rules)
		for i := 0; i < n; i++ {
			sink += len(rw.Rewrite(chunk))
		}
		sink += len(rw.Flush())
	})
}

// scheduleFireNs is the kernel's cost per fired event at a standing queue
// depth of 4096 self-renewing events with delays spread over 1 µs–1 ms
// (Kernel.ScheduleAfter + RunFor).
func scheduleFireNs() float64 {
	const depth = 4096
	k := sim.NewKernel(1)
	for i := 0; i < depth; i++ {
		d := sim.Time(1+i%1000) * sim.Microsecond
		var fire func()
		fire = func() { k.ScheduleAfter(d, fire) }
		k.ScheduleAfter(d, fire)
	}
	k.RunFor(10 * sim.Millisecond) // warm the wheel and the event pool
	per := make([]float64, microBatches)
	for i := range per {
		t := cpuClock()
		fired := k.RunFor(5 * sim.Millisecond)
		per[i] = float64((cpuClock() - t).Nanoseconds()) / float64(fired)
	}
	return median(per)
}
