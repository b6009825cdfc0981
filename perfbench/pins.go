package main

import (
	"fmt"

	"repro/internal/sim"
)

// Pinned outputs for the default seed. A run with --seed 1 checks its
// worlds' trace digests against these; every other seed checks the
// verdicts plus replay equality of its first world. They change only when
// the simulated behaviour does, never for a speed-only change.
const pinSeed = 1

const (
	pinCampusJoinEnd sim.Time = 3400 * sim.Millisecond
	pinCampusDigest  uint64   = 0xbe6645c3e0ccbd40
)

// pinBulk is indexed like bulkKinds: the round-0 worlds of seed 1.
var pinBulk = [...]uint64{0x9807215aeb80741a, 0x41db7fe55558e4d7, 0x6fb97f204729e5b7}

// pinMatrix is indexed like matrixPoints: the first sweep of seed 1.
var pinMatrix = [...]uint64{
	0x84652ec430d54acd, // healthy
	0x58fe48d8942bc165, // attack
	0xa0466402b17e46d8, // vpn
	0x99c0f5f7c0618e22, // mesh
	0x3d1846ed5079296b, // detect
	0xa99b5a2d0ec7aa8c, // chaos-deauth
	0x32ddbe4419a9b0b7, // chaos-apcrash
	0x5e6b9bd7fdca3dac, // chaos-burst
	0xb7712258821a9f43, // chaos-relay
	0xbd284e1a1fd6219b, // vpn+ap-restart
	0x00b035ae05d08100, // vpn+burst-loss
	0xe57984ddbd622cdd, // vpn+deauth-storm
	0x8147d7ef0716558d, // vpn+link-flap
	0xf027513520131606, // vpn+mixed
	0x624a3c43ca36bcd0, // mesh+relay-drop
}

// printDigest reports a pinned world's digest on a comment line, which is
// where the pins above are read from when the simulated behaviour changes.
func printDigest(workload, world string, seed, digest uint64) {
	fmt.Printf("# digest %s %s seed=%d %016x\n", workload, world, seed, digest)
}
