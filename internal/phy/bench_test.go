package phy

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sim"
)

// addBenchGrid attaches n listening radios on a square grid with the given
// spacing, cycling through the 1/6/11 channel plan.
func addBenchGrid(m *Medium, n int, spacing float64) []*Radio {
	side := int(math.Ceil(math.Sqrt(float64(n))))
	plan := [3]Channel{1, 6, 11}
	for i := 0; i < n; i++ {
		r := m.AddRadio(RadioConfig{
			Name:    fmt.Sprintf("r%d", i),
			Pos:     Position{X: float64(i%side) * spacing, Y: float64(i/side) * spacing},
			Channel: plan[i%3],
		})
		r.SetReceiver(func(data []byte, info RxInfo) {})
	}
	return m.Radios()
}

// benchmarkMediumBroadcast measures per-transmission delivery cost at a
// given world size: radios on a 90 m grid cycling through the 1/6/11 plan,
// with senders rotating through the population so no single neighborhood
// stays hot. Sharded delivery evaluates one interference neighborhood per
// frame, so ns/op should stay roughly flat as the world grows; the
// Unsharded variant (the flat reference scan in flat_test.go, the pre-shard
// O(radios) delivery) scales linearly and is the comparison floor for the
// events/sec claim.
func benchmarkMediumBroadcast(b *testing.B, n int, unsharded bool) {
	k := sim.NewKernel(1)
	m := NewMedium(k, Config{})
	send := (*Radio).Send
	if unsharded {
		send = (&flatMedium{m: m}).send
	}
	radios := addBenchGrid(m, n, 90)
	payload := make([]byte, 512)
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send(radios[i%n], payload, Rate11Mbps)
		// 512 bytes at 11 Mb/s is well under a millisecond: each iteration
		// is one complete transmission plus its delivery fan-out.
		events += k.RunFor(sim.Millisecond)
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

func BenchmarkMediumBroadcast(b *testing.B) {
	for _, n := range []int{64, 1024, 4096} {
		n := n
		b.Run(fmt.Sprintf("radios=%d", n), func(b *testing.B) {
			benchmarkMediumBroadcast(b, n, false)
		})
	}
}

func BenchmarkMediumBroadcastUnsharded(b *testing.B) {
	b.Run("radios=1024", func(b *testing.B) {
		benchmarkMediumBroadcast(b, 1024, true)
	})
}

// BenchmarkMediumStorm measures delivery when many radios transmit at once,
// the shape of a campus join phase: every receiver in range of a burst
// evaluates the capture test against the burst's other frames, and most
// evaluations end in a collision. Each iteration is one burst of 32
// simultaneous sends from senders spread across a 30 m grid on the 1/6/11
// plan, run until every frame has completed. BenchmarkMediumBroadcast sends
// one frame at a time and never reaches that path.
func BenchmarkMediumStorm(b *testing.B) {
	for _, n := range []int{256, 1024} {
		n := n
		b.Run(fmt.Sprintf("radios=%d", n), func(b *testing.B) {
			k := sim.NewKernel(1)
			m := NewMedium(k, Config{})
			radios := addBenchGrid(m, n, 30)
			payload := make([]byte, 512)
			const burst = 32
			var events uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < burst; j++ {
					// Stride 97 walks the population in a scattered order.
					radios[((i*burst+j)*97)%n].Send(payload, Rate11Mbps)
				}
				events += k.RunFor(sim.Millisecond)
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
			b.ReportMetric(float64(m.Collisions)/float64(b.N), "collisions/op")
		})
	}
}
