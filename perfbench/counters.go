package main

import (
	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// counters is a snapshot of the simulated work counts the layers export.
// Every entry is a function of the seed and the simulated work alone, so two
// runs of the same world must produce equal snapshots; a speed-only change
// must leave them identical.
type counters [nCounters]uint64

const (
	cEvents = iota
	cEventAllocs
	cTransmissions
	cDeliveries
	cCollisions
	cSNRDrops
	cBeacons
	cAssociations
	cScanCycles
	cMACRetries
	cTxFailed
	cPktGets
	cPktReuses
	cTCPRetransmits
	cVPNPackets
	cVPNRekeys
	cNetsedBytes
	cNATTranslations
	cHTTPRequests
	cFaultsApplied
	cFaultsReverted
	cDetectFrames
	nCounters
)

// counterNames are the per-layer metric names of the raw counts.
var counterNames = [nCounters]string{
	cEvents:          "sim.events",
	cEventAllocs:     "sim.event_allocs",
	cTransmissions:   "phy.transmissions",
	cDeliveries:      "phy.deliveries",
	cCollisions:      "phy.collisions",
	cSNRDrops:        "phy.snr_drops",
	cBeacons:         "dot11.beacons",
	cAssociations:    "dot11.associations",
	cScanCycles:      "dot11.scan_cycles",
	cMACRetries:      "dot11.mac_retries",
	cTxFailed:        "dot11.tx_failed",
	cPktGets:         "pkt.gets",
	cPktReuses:       "pkt.reuses",
	cTCPRetransmits:  "tcp.retransmits",
	cVPNPackets:      "vpn.packets",
	cVPNRekeys:       "vpn.rekeys",
	cNetsedBytes:     "netsed.bytes_relayed",
	cNATTranslations: "netfilter.translations",
	cHTTPRequests:    "httpx.requests",
	cFaultsApplied:   "faults.applied",
	cFaultsReverted:  "faults.reverted",
	cDetectFrames:    "detect.frames_seen",
}

func (c *counters) add(o counters) {
	for i := range c {
		c[i] += o[i]
	}
}

func (c counters) sub(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c *counters) kernel(k *sim.Kernel, m *phy.Medium) {
	c[cEvents] += k.Fired()
	c[cEventAllocs] += k.EventAllocs()
	c[cTransmissions] += m.Transmissions
	c[cDeliveries] += m.Deliveries
	c[cCollisions] += m.Collisions
	c[cSNRDrops] += m.SNRDrops
	st := k.BufPool().Stats()
	c[cPktGets] += st.Gets
	c[cPktReuses] += st.Reuses
}

func (c *counters) ap(ap *dot11.AP) {
	if ap == nil {
		return
	}
	c[cBeacons] += ap.Beacons
	c[cAssociations] += ap.Associations
	c[cMACRetries] += ap.MACRetries
	c[cTxFailed] += ap.TxFailed
}

func (c *counters) sta(s *dot11.STA) {
	if s == nil {
		return
	}
	c[cScanCycles] += s.ScanCycles
	c[cMACRetries] += s.MACRetries
	c[cTxFailed] += s.TxFailed
}

func (c *counters) tcp(stacks ...*tcp.Stack) {
	for _, s := range stacks {
		if s != nil {
			c[cTCPRetransmits] += s.Retransmits
		}
	}
}

func campusCounters(w *core.CampusWorld) counters {
	var c counters
	c.kernel(w.Kernel, w.Medium)
	for _, ap := range w.APs {
		c.ap(ap)
	}
	c.ap(w.Rogue)
	for _, s := range w.STAs {
		c.sta(s)
	}
	return c
}

// worldCounters snapshots a single-victim world. detectFrames is the
// detector's count for the detect scenario (the world does not hold it).
func worldCounters(w *core.World, detectFrames uint64) counters {
	var c counters
	c.kernel(w.Kernel, w.Medium)
	c.ap(w.CorpAP)
	c.sta(w.Victim.STA)
	for _, h := range []*core.Host{w.Router, w.Web, w.VPNHost, w.Relay1, w.Relay2, w.Victim.Host} {
		if h != nil {
			c.tcp(h.TCP)
		}
	}
	if r := w.Rogue; r != nil {
		c.ap(r.AP)
		c.sta(r.STA)
		c.tcp(r.TCP)
		if r.Netsed != nil {
			c[cNetsedBytes] += r.Netsed.BytesRelayed
		}
		if r.FW != nil {
			c[cNATTranslations] += r.FW.Translations
		}
	}
	if s := w.VPNServer; s != nil {
		c[cVPNPackets] += s.PacketsIn + s.PacketsOut
	}
	if v := w.VictimVPN; v != nil {
		c[cVPNRekeys] += v.Rekeys
	}
	c[cHTTPRequests] += w.WebServer.Requests
	if w.RogueWeb != nil {
		c[cHTTPRequests] += w.RogueWeb.Requests
	}
	if f := w.Faults; f != nil {
		c[cFaultsApplied] += f.Applied
		c[cFaultsReverted] += f.Reverted
	}
	c[cDetectFrames] += detectFrames
	return c
}
