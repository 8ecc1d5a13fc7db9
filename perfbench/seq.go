package main

import (
	"fmt"
	"math/rand"
)

// op is one operation of a workload's seeded sequence. The same (seed,
// client, index) always yields the same op, however many ops a run gets
// through, so a faster commit runs a longer prefix of the same sequence.
type op struct {
	Index int
	Kind  string // spill | matmul-sm | matmul-wp | chase-hdl | chase-cl | fir-sm | loop
	// N is the op's size: items streamed (spill, loop), matrix size
	// (matmul-*), chase steps (chase-*) or FIR samples (fir-sm).
	N     int
	Watch int64    // matmul-wp: the watched data_a index
	Reads []readOp // loop: the reads issued after the run finalizes
}

// readOp is one seeded read of a service-mix loop.
type readOp struct {
	Kind string // attr | diff | query | at-cycle
	// Pick selects the target among the client's finalized runs (the pinned
	// baseline first, then its own earlier runs): index Pick*len(history).
	Pick float64
	// Frac places the query window or the at-cycle target within the
	// target run, as a fraction of its end cycle.
	Frac float64
}

func (o op) String() string {
	s := fmt.Sprintf("%s n=%d", o.Kind, o.N)
	if o.Kind == "matmul-wp" {
		s += fmt.Sprintf(" watch=%d", o.Watch)
	}
	for _, r := range o.Reads {
		s += fmt.Sprintf(" %s(%.3f,%.3f)", r.Kind, r.Pick, r.Frac)
	}
	return s
}

// blockRand returns the generator of one block of a sequence. Each block is
// seeded on its own, so op i is computed without generating ops 0..i-1.
func blockRand(workload string, seed int64, client, block int) *rand.Rand {
	h := uint64(seed)
	for _, c := range workload {
		h = h*1099511628211 + uint64(c)
	}
	h = mix64(h ^ mix64(uint64(client)+1)<<1 ^ mix64(uint64(block)+0x9e37))
	return rand.New(rand.NewSource(int64(h >> 1)))
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// Sequences are built from stratified, shuffled blocks: every block holds
// one op from each stratum (or kernel), and each stratum's size steps
// through its levels in a seeded order (see level), so any long prefix has
// nearly the same mix whatever the seed. The seed changes the exact sizes,
// the order, and the reads.

// spillStrata bound the spill-write item counts. At 4096 lines or 1 MiB
// per segment, n=2048 seals 2 segments and n=8192 seals 12. The strata are
// narrower at the small end so a run gets through enough ops.
var spillStrata = [][2]int{{2048, 2560}, {2560, 3584}, {3584, 5120}, {5120, 8193}}

// serviceN(0..serviceNK-1) is the item-count alphabet of service-mix runs, small enough
// that set-up can compute the reference end cycle of each in-process.
const (
	serviceNBase = 1024
	serviceNStep = 64
	serviceNK    = 17 // n in {1024, 1088, ..., 2048}
)

func serviceN(k int) int { return serviceNBase + serviceNStep*k }

// opAt returns op index of client's sequence for workload under seed.
func opAt(workload string, seed int64, client, index int) op {
	var block []op
	lvl := func(stream string, b, levels int) int { return level(workload+"/"+stream, seed, client, b, levels) }
	switch workload {
	case "spill-write":
		b := index / len(spillStrata)
		r := blockRand(workload, seed, client, b)
		for s, st := range spillStrata {
			pos := (float64(lvl(fmt.Sprint(s), b, 8)) + r.Float64()) / 8
			block = append(block, op{Kind: "spill", N: st[0] + int(pos*float64(st[1]-st[0]))})
		}
		shuffle(r, block)
	case "paper-kernels":
		b := index / 4
		r := blockRand(workload, seed, client, b)
		wp := 12 + lvl("wp", b, 9) // matmul 12..20
		chase := []string{"chase-hdl", "chase-cl"}[lvl("chase-kind", b, 2)]
		block = []op{
			{Kind: "matmul-sm", N: 12 + lvl("sm", b, 9)},
			{Kind: "matmul-wp", N: wp, Watch: int64(r.Intn(wp * wp))},
			{Kind: chase, N: 400 + 100*lvl("chase", b, 8) + r.Intn(100)},
			{Kind: "fir-sm", N: 256 + 96*lvl("fir", b, 8) + r.Intn(96)},
		}
		shuffle(r, block)
	case "service-mix":
		b := index / 2
		r := blockRand(workload, seed, client, b)
		half := serviceNK / 2
		block = []op{
			{Kind: "loop", N: serviceN(lvl("lo", b, half))},
			{Kind: "loop", N: serviceN(half + lvl("hi", b, serviceNK-half))},
		}
		for i := range block {
			for _, kind := range []string{"attr", "diff", "query", "at-cycle"} {
				block[i].Reads = append(block[i].Reads, readOp{Kind: kind, Pick: r.Float64(), Frac: 0.05 + 0.9*r.Float64()})
			}
		}
		shuffle(r, block)
	default:
		panic("opAt: unknown workload " + workload)
	}
	o := block[index%len(block)]
	o.Index = index
	return o
}

// level returns block b's level in [0, levels) on one stream: each run of
// levels consecutive blocks visits every level once, in a seeded order, so
// sizes are spread evenly over any long prefix whatever the seed.
func level(stream string, seed int64, client, b, levels int) int {
	return blockRand(stream, seed, client, b/levels).Perm(levels)[b%levels]
}

// warmupOp is the untimed op each set-up runs. It does not depend on the
// seed, so set-up time compares across seeds; service-mix's set-up runs its
// baseline instead.
func warmupOp(workload string) op {
	if workload == "paper-kernels" {
		return op{Kind: "matmul-sm", N: 16}
	}
	return op{Kind: "spill", N: 4096}
}

// baselineN is the item count of service-mix's pinned baseline run.
var baselineN = serviceN(serviceNK / 2)

func shuffle(r *rand.Rand, ops []op) {
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
}
