package main

import (
	"math/rand"
	"time"

	"poseidon/internal/automorph"
	"poseidon/internal/ckks"
	"poseidon/internal/numeric"
	"poseidon/internal/ring"
	"poseidon/internal/rns"
)

// kernelBudget is the wall time spent timing each kernel.
const kernelBudget = 150 * time.Millisecond

// timeKernel returns the median time of one call of fn in microseconds,
// over rounds of calls long enough to read the clock accurately.
func timeKernel(fn func()) float64 {
	fn() // first call: lazy tables and cold caches
	reps := 1
	for {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		if time.Since(t0) >= time.Millisecond {
			break
		}
		reps *= 2
	}
	var per []float64
	for start := time.Now(); time.Since(start) < kernelBudget || len(per) < 5; {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/1e3/float64(reps))
	}
	return median(per)
}

// randomPoly fills limbs with values reduced modulo each limb's prime.
func randomPoly(rng *rand.Rand, moduli []numeric.Modulus, n int) [][]uint64 {
	out := make([][]uint64, len(moduli))
	for i, m := range moduli {
		out[i] = make([]uint64, n)
		for j := range out[i] {
			out[i][j] = rng.Uint64() % m.Q
		}
	}
	return out
}

// timeKernels times the ring, rns, automorph and numeric kernels at the
// workload's shape (full-chain limb count, the program's default
// dispatch) and records per-call times and computed compulsory bytes:
// every input word read once, every output word written once.
func timeKernels(params *ckks.Parameters, seed int64, m metrics) {
	rng := rand.New(rand.NewSource(subSeed(seed, 9, 0)))
	n := params.N
	rq := params.RingQ
	qMods, pMods := rq.Moduli, params.RingP.Moduli
	limbs := len(qMods)
	words := float64(n) * 8

	p := &ring.Poly{Coeffs: randomPoly(rng, qMods, n)}
	fwd := timeKernel(func() {
		p.IsNTT = false
		rq.NTT(p)
	})
	inv := timeKernel(func() {
		p.IsNTT = true
		rq.INTT(p)
	})
	m.set("ntt.forward_us", fwd/float64(limbs), "us")
	m.set("ntt.inverse_us", inv/float64(limbs), "us")
	m.set("ntt.forward.bytes_moved", 2*words, "bytes")
	m.set("ntt.inverse.bytes_moved", 2*words, "bytes")

	src := &ring.Poly{Coeffs: randomPoly(rng, qMods, n), IsNTT: true}
	dst := rq.NewPoly(limbs)
	g := automorph.GaloisElementForRotation(1, n)
	auto := timeKernel(func() { rq.AutomorphismNTT(dst, src, g) })
	m.set("automorph.apply_us", auto/float64(limbs), "us")
	m.set("automorph.apply.bytes_moved", 3*words, "bytes") // source, destination, permutation

	level := limbs - 1
	alpha := len(pMods)
	dec := rns.NewDecomposer(qMods, pMods, alpha)
	in := randomPoly(rng, qMods, n)
	ext := make([][]uint64, limbs+len(pMods))
	for i := range ext {
		ext[i] = make([]uint64, n)
	}
	m.set("rns.modup_us", timeKernel(func() { dec.DecomposeAndExtend(level, 0, in, ext) }), "us")
	m.set("rns.modup.bytes_moved", float64(alpha+limbs+len(pMods))*words, "bytes")

	md := rns.NewModDownParams(qMods, pMods)
	aP := randomPoly(rng, pMods, n)
	out := make([][]uint64, limbs)
	for i := range out {
		out[i] = make([]uint64, n)
	}
	m.set("rns.moddown_us", timeKernel(func() { md.ModDown(out, in, aP) }), "us")
	m.set("rns.moddown.bytes_moved", float64(2*limbs+len(pMods))*words, "bytes")

	rs := rns.NewRescaler(qMods)
	m.set("rns.rescale_us", timeKernel(func() { rs.Rescale(out[:limbs-1], in) }), "us")
	m.set("rns.rescale.bytes_moved", float64(2*limbs-1)*words, "bytes")

	hi, lo := make([]uint64, n), make([]uint64, n)
	a, b := in[0], in[1%limbs]
	m.set("numeric.mac_wide_us", timeKernel(func() { numeric.VecMACWide(hi, lo, a, b) }), "us")
	m.set("numeric.mac_wide.bytes_moved", 6*words, "bytes") // read hi, lo, a, b; write hi, lo
}
