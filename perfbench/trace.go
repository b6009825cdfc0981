package main

import "fmt"

// reportTrace records the per-layer metrics of a traced run: CPU self time
// per layer folded from the profiled units, the work counters of those same
// units with their derived ratios, and the profiler's overhead.
func (b *bench) reportTrace() {
	var total int64
	for i, l := range layers {
		ns := int64(0)
		if b.prof.layerNs != nil {
			ns = b.prof.layerNs[i]
		}
		total += ns
		b.set(l+".self_s", float64(ns)/1e9, "s")
	}
	fmt.Printf("# profile stacks=%d cpu_s=%g\n", b.prof.stacks, float64(total)/1e9)

	c := b.traceCounters
	for i, name := range counterNames {
		b.set(name, float64(c[i]), "count")
	}
	selfNs := func(layer string) float64 {
		if b.prof.layerNs == nil {
			return 0
		}
		return float64(b.prof.layerNs[layerIndex[layer]])
	}
	b.set("sim.ns_per_event", ratio(float64(b.traceCPU.Nanoseconds()), float64(c[cEvents])), "ns")
	b.set("phy.deliveries_per_tx", ratio(float64(c[cDeliveries]), float64(c[cTransmissions])), "ratio")
	b.set("phy.ns_per_delivery", ratio(selfNs("phy"), float64(c[cDeliveries])), "ns")
	b.set("dot11.tx_failed_ratio", ratio(float64(c[cTxFailed]), float64(c[cTransmissions])), "ratio")
	b.set("pkt.reuse_ratio", ratio(float64(c[cPktReuses]), float64(c[cPktGets])), "ratio")
	b.set("vpn.ns_per_packet", ratio(selfNs("vpn"), float64(c[cVPNPackets])), "ns")

	// CPU time per unit of work with the profiler on, over the same with it
	// off, both measured in this process on the same kind of unit.
	off := ratio(b.cpu[0].Seconds(), b.work[0])
	on := ratio(b.cpu[1].Seconds(), b.work[1])
	b.set("trace.overhead_ratio", ratio(on, off), "ratio")
}
