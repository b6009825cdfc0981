package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// layers are the buckets CPU samples fold into. A sample goes to the
// innermost frame on its stack that belongs to one of the repro/internal
// layers below, so standard-library work (math, crypto, sort, the
// allocator) is charged to the layer that called it. Frames of this driver
// (package main) count as "bench"; samples with neither go to "runtime"
// (GC workers, the scheduler).
var layers = []string{
	"sim", "phy", "dot11", "wep", "ethernet", "arp", "ipv4", "tcp", "udp",
	"vpn", "netfilter", "netsed", "httpx", "faults", "detect", "core", "pkt",
	"inet", "attack", "bench", "runtime",
}

var layerIndex = func() map[string]int {
	m := make(map[string]int, len(layers))
	for i, l := range layers {
		m[l] = i
	}
	return m
}()

const internalPrefix = "repro/internal/"

// profiler collects CPU profiles over one or more profiled segments and
// folds each into per-layer CPU nanoseconds.
type profiler struct {
	on      bool
	buf     bytes.Buffer
	layerNs []int64
	stacks  int64
	err     error
}

func (p *profiler) start() {
	if p.on || p.err != nil {
		return
	}
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		p.err = err
		return
	}
	p.on = true
}

func (p *profiler) stop() {
	if !p.on {
		return
	}
	pprof.StopCPUProfile()
	p.on = false
	if p.layerNs == nil {
		p.layerNs = make([]int64, len(layers))
	}
	if err := p.fold(p.buf.Bytes()); err != nil && p.err == nil {
		p.err = err
	}
}

// layerOf returns the bucket of a function name, or -1 if the frame belongs
// to no layer (standard library, runtime).
func layerOf(fn string) int {
	if strings.HasPrefix(fn, "main.") {
		return layerIndex["bench"]
	}
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return -1
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	if l, ok := layerIndex[rest]; ok {
		return l
	}
	return -1
}

// fold decodes a gzipped pprof profile (profile.proto) and adds each
// sample's CPU nanoseconds to its layer. Only the fields the fold needs are
// read: sample types, samples, locations with their inline lines, functions
// and the string table.
func (p *profiler) fold(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}

	var (
		strs        []string
		sampleTypes []uint64                // string index of each value's type
		samples     []profSample            // location ids leaf first, values
		locFuncs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames   = map[uint64]uint64{}   // function id -> string index
	)
	top := pb{b: raw}
	for top.more() {
		field, wire := top.key()
		switch {
		case field == 1 && wire == 2: // sample_type
			vt := pb{b: top.bytes()}
			for vt.more() {
				f, w := vt.key()
				if f == 1 && w == 0 {
					sampleTypes = append(sampleTypes, vt.varint())
				} else {
					vt.skip(w)
				}
			}
		case field == 2 && wire == 2: // sample
			s := pb{b: top.bytes()}
			var ps profSample
			for s.more() {
				f, w := s.key()
				switch f {
				case 1:
					ps.locs = s.uints(w, ps.locs)
				case 2:
					ps.values = s.uints(w, ps.values)
				default:
					s.skip(w)
				}
			}
			samples = append(samples, ps)
		case field == 4 && wire == 2: // location
			l := pb{b: top.bytes()}
			var id uint64
			var fns []uint64
			for l.more() {
				f, w := l.key()
				switch {
				case f == 1 && w == 0:
					id = l.varint()
				case f == 4 && w == 2:
					ln := pb{b: l.bytes()}
					for ln.more() {
						lf, lw := ln.key()
						if lf == 1 && lw == 0 {
							fns = append(fns, ln.varint())
						} else {
							ln.skip(lw)
						}
					}
				default:
					l.skip(w)
				}
			}
			locFuncs[id] = fns
		case field == 5 && wire == 2: // function
			fn := pb{b: top.bytes()}
			var id, name uint64
			for fn.more() {
				f, w := fn.key()
				switch {
				case f == 1 && w == 0:
					id = fn.varint()
				case f == 2 && w == 0:
					name = fn.varint()
				default:
					fn.skip(w)
				}
			}
			funcNames[id] = name
		case field == 6 && wire == 2: // string_table
			strs = append(strs, string(top.bytes()))
		default:
			top.skip(wire)
		}
		if top.err != nil {
			return top.err
		}
	}

	// CPU profiles carry [samples/count, cpu/nanoseconds]; fold the cpu one.
	vi := len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if t < uint64(len(strs)) && strs[t] == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return errors.New("profile: no sample types")
	}
	runtimeLayer := layerIndex["runtime"]
	for _, s := range samples {
		if vi >= len(s.values) {
			continue
		}
		layer := runtimeLayer
	stack:
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				name := funcNames[fid]
				if name >= uint64(len(strs)) {
					continue
				}
				if l := layerOf(strs[name]); l >= 0 {
					layer = l
					break stack
				}
			}
		}
		p.layerNs[layer] += int64(s.values[vi])
		p.stacks++
	}
	return nil
}

type profSample struct {
	locs, values []uint64
}

// pb is a minimal protocol-buffer wire-format reader.
type pb struct {
	b   []byte
	err error
}

func (p *pb) more() bool { return p.err == nil && len(p.b) > 0 }

func (p *pb) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.fail()
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.fail()
	return 0
}

func (p *pb) key() (field, wire int) {
	k := p.varint()
	return int(k >> 3), int(k & 7)
}

func (p *pb) bytes() []byte {
	n := p.varint()
	if n > uint64(len(p.b)) {
		p.fail()
		return nil
	}
	out := p.b[:n]
	p.b = p.b[n:]
	return out
}

// uints appends a repeated integer field, packed (wire type 2) or not.
func (p *pb) uints(wire int, dst []uint64) []uint64 {
	if wire == 0 {
		return append(dst, p.varint())
	}
	if wire != 2 {
		p.skip(wire)
		return dst
	}
	packed := pb{b: p.bytes()}
	for packed.more() {
		dst = append(dst, packed.varint())
	}
	if packed.err != nil {
		p.err = packed.err
	}
	return dst
}

func (p *pb) skip(wire int) {
	switch wire {
	case 0:
		p.varint()
	case 1:
		p.advance(8)
	case 2:
		p.bytes()
	case 5:
		p.advance(4)
	default:
		p.fail()
	}
}

func (p *pb) advance(n int) {
	if n > len(p.b) {
		p.fail()
		return
	}
	p.b = p.b[n:]
}

func (p *pb) fail() {
	if p.err == nil {
		p.err = errors.New("profile: malformed protobuf")
	}
	p.b = nil
}
