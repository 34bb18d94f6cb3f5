package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"poseidon/internal/ckks"
	"poseidon/internal/telemetry"
)

// Phase shares of the measured seconds for circuit-bootstrap.
const (
	oneCallerShare  = 0.35
	allCallersShare = 0.65
	// circuitBlocks interleaved cycles of the two phases: fewer than the
	// serve workloads' blocks, so each block holds enough circuits for
	// its median.
	circuitBlocks = 3
	// minBootBits below which a refreshed-and-squared output counts as
	// wrong; examples/bootstrap reaches about 15 bits at these parameters.
	minBootBits = 12
	// circuitInputs fresh level-0 ciphertexts are encrypted at set-up and
	// taken in turn.
	circuitInputs = 64
)

// circuitFixture holds the circuit workload's keys, bootstrappers and
// inputs.
type circuitFixture struct {
	params *ckks.Parameters
	enc    *ckks.Encoder
	decr   *ckks.Decryptor
	// boot runs at the default worker count; perCaller[i] is caller i's
	// own bootstrapper at one worker.
	boot      *ckks.Bootstrapper
	perCaller []*ckks.Bootstrapper
	inputs    []circuitInput
}

type circuitInput struct {
	z  []complex128
	ct *ckks.Ciphertext
}

// bootParams are examples/bootstrap's parameters: a 28-limb chain, of
// which bootstrapping consumes about 20 levels.
func bootParams() (*ckks.Parameters, error) {
	logQ := []int{55}
	for i := 0; i < 27; i++ {
		logQ = append(logQ, 45)
	}
	return ckks.NewParameters(ckks.ParametersLiteral{
		LogN: 9, LogQ: logQ, LogP: []int{52, 52, 52, 52, 52}, LogScale: 45,
	})
}

// newCircuitFixture builds keys and callers bootstrappers plus the
// default-worker one, and encrypts the inputs.
func newCircuitFixture(seed int64, callers int) (*circuitFixture, error) {
	params, err := bootParams()
	if err != nil {
		return nil, err
	}
	enc := ckks.NewEncoder(params)
	kgen := ckks.NewKeyGenerator(params, subSeed(seed, 2, 0))
	sk := kgen.GenSecretKey()
	pk := kgen.GenPublicKey(sk)
	f := &circuitFixture{params: params, enc: enc, decr: ckks.NewDecryptor(params, sk)}
	cfg := ckks.BootstrapConfig{K: 28}
	if f.boot, err = ckks.NewBootstrapper(params, enc, kgen, sk, cfg); err != nil {
		return nil, err
	}
	for i := 0; i < callers; i++ {
		b, err := ckks.NewBootstrapper(params, enc, kgen, sk, cfg)
		if err != nil {
			return nil, err
		}
		b.SetWorkers(1)
		f.perCaller = append(f.perCaller, b)
	}
	encr := ckks.NewEncryptor(params, pk, subSeed(seed, 3, 0))
	rng := rand.New(rand.NewSource(subSeed(seed, 1, 0)))
	for i := 0; i < circuitInputs; i++ {
		z := make([]complex128, params.Slots)
		for j := range z {
			z[j] = cmplx.Rect(0.5*rng.Float64(), 2*math.Pi*rng.Float64())
		}
		f.inputs = append(f.inputs, circuitInput{z: z, ct: encr.Encrypt(enc.Encode(z, 0, params.Scale))})
	}
	return f, nil
}

// square finishes one circuit: the refreshed ciphertext squared and
// rescaled, which needs the levels bootstrapping restored.
func square(ev *ckks.Evaluator, ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	sq, err := ev.TryMulRelin(ct, ct)
	if err != nil {
		return nil, err
	}
	return ev.TryRescale(sq)
}

// circuit runs one bootstrap+square on input i.
func (f *circuitFixture) circuit(b *ckks.Bootstrapper, i int) (*ckks.Ciphertext, error) {
	out, err := b.Bootstrap(f.inputs[i%len(f.inputs)].ct)
	if err != nil {
		return nil, err
	}
	return square(b.Evaluator(), out)
}

// check decrypts a circuit output and returns its precision in bits.
func (f *circuitFixture) check(i int, ct *ckks.Ciphertext) float64 {
	z := f.inputs[i%len(f.inputs)].z
	worst := 0.0
	for j, v := range f.enc.Decode(f.decr.Decrypt(ct)) {
		worst = math.Max(worst, cmplx.Abs(v-z[j]*z[j]))
	}
	return bitsOf(worst)
}

// circuitRecorder gathers one phase's circuits.
type circuitRecorder struct {
	mu        sync.Mutex
	latencies []float64 // ms
	bits      float64
	wrong     []string
	attempted int64
	failed    int64
}

// note checks circuit i's output. Every output below minBootBits is
// wrong; only anchors, the circuits every run performs whatever its speed,
// count towards precision_bits, so that it repeats exactly at one seed.
func (r *circuitRecorder) note(f *circuitFixture, i int, anchor bool, ct *ckks.Ciphertext, lat time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		r.wrong = append(r.wrong, fmt.Sprintf("circuit %d: %v", i, err))
		return
	}
	b := f.check(i, ct)
	if b < minBootBits {
		r.failed++
		r.wrong = append(r.wrong, fmt.Sprintf("circuit %d: %.1f bits", i, b))
	}
	if anchor {
		r.bits = math.Min(r.bits, b)
	}
	r.latencies = append(r.latencies, ms(lat))
}

func (r *circuitRecorder) merge(out *outcome) {
	out.attempted += r.attempted
	out.failed += r.failed
	out.wrong = append(out.wrong, r.wrong...)
	if prev, ok := out.e2e["precision_bits"]; !ok || r.bits < prev.Value {
		out.e2e.set("precision_bits", r.bits, "bits")
	}
}

// inputStride separates the input sequences of blocks and callers: the
// k-th circuit of a caller in a block always takes the same input.
const inputStride = 1000

// oneCaller runs circuits back to back on f.boot until dur has passed,
// taking inputs first, first+1, ...
func (f *circuitFixture) oneCaller(r *circuitRecorder, dur time.Duration, first int) {
	for k, deadline := 0, time.Now().Add(dur); time.Now().Before(deadline); k++ {
		t0 := time.Now()
		ct, err := f.circuit(f.boot, first+k)
		r.note(f, first+k, k == 0, ct, time.Since(t0), err)
	}
}

// callerTally is one caller's circuits and busy time in a block.
type callerTally struct {
	circuits int
	busy     time.Duration
}

// allCallers runs one caller per bootstrapper in f.perCaller, each back to
// back until dur has passed, recording in each caller's tally the circuits
// it completed and the time to its last completion.
func (f *circuitFixture) allCallers(r *circuitRecorder, tally []callerTally, dur time.Duration, first int) {
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c, b := range f.perCaller {
		wg.Add(1)
		go func(c int, b *ckks.Bootstrapper) {
			defer wg.Done()
			base := first + (c+1)*inputStride
			for k := 0; time.Now().Before(deadline); k++ {
				t0 := time.Now()
				ct, err := f.circuit(b, base+k)
				r.note(f, base+k, k == 0, ct, time.Since(t0), err)
				tally[c].circuits++
			}
			tally[c].busy += time.Since(start)
		}(c, b)
	}
	wg.Wait()
}

// rate is the completed circuits per second: each caller's circuits over
// its busy time, summed.
func rate(tally []callerTally) float64 {
	r := 0.0
	for _, t := range tally {
		r += float64(t.circuits) / t.busy.Seconds()
	}
	return r
}

// runCircuit runs circuit-bootstrap: timed set-ups, then one caller at the
// default worker count, then nproc callers at one worker each.
func runCircuit(opt options) (*outcome, error) {
	total := time.Duration(opt.seconds * float64(time.Second))
	callers := runtime.NumCPU()
	out := newOutcome()
	out.info["params"] = map[string]any{"logN": 9, "logQ": "55 + 27×45", "logP": "5×52", "logScale": 45, "K": 28, "workers": 0}
	out.info["callers"] = map[string]any{"one_caller_workers": 0, "all_callers": callers, "all_callers_workers": 1}
	if opt.trace {
		return out, traceCircuit(opt, out, total)
	}

	var setups []float64
	var f *circuitFixture
	for i := 0; i < setupRepeats; i++ {
		f = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if f, err = newCircuitFixture(opt.seed, callers); err != nil {
			return nil, err
		}
		// Warm-up: one circuit, so lazily built plans exist before timing.
		if _, err := f.circuit(f.boot, circuitInputs-1); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.info["setup_s_each"] = setups
	runtime.GC()

	// The phases run in interleaved cycles, so each samples the whole run.
	// Each figure is the median over the blocks of the block's own median
	// or rate: a circuit is a fixed computation, so a block that differs is
	// a slow stretch of the host, and the median over blocks sets it aside.
	one, all := &circuitRecorder{bits: math.Inf(1)}, &circuitRecorder{bits: math.Inf(1)}
	var oneMedians, allMedians, allP90s, rates []float64
	part := func(share float64) time.Duration { return time.Duration(share * float64(total) / circuitBlocks) }
	heap := startHeapSampler(nil, 50*time.Millisecond)
	for b := 0; b < circuitBlocks; b++ {
		first := b * (callers + 1) * inputStride
		n1, n2 := len(one.latencies), len(all.latencies)
		f.oneCaller(one, part(oneCallerShare), first)
		tally := make([]callerTally, callers)
		f.allCallers(all, tally, part(allCallersShare), first)
		oneMedians = append(oneMedians, median(append([]float64(nil), one.latencies[n1:]...)))
		allMedians = append(allMedians, median(append([]float64(nil), all.latencies[n2:]...)))
		allP90s = append(allP90s, quantile(append([]float64(nil), all.latencies[n2:]...), 0.9))
		rates = append(rates, rate(tally))
	}
	heap.finish()
	one.merge(out)
	all.merge(out)
	out.info["block_medians_ms"] = map[string][]float64{"one_caller": oneMedians, "all_callers": allMedians}
	out.info["block_p90s_ms"] = allP90s
	out.info["block_circuits_per_s"] = rates
	// median sorts its argument: copies keep the blocks in run order.
	blockMedian := func(xs []float64) float64 { return median(append([]float64(nil), xs...)) }
	perSecond := blockMedian(rates)

	out.e2e.set("setup_s", median(setups), "s")
	out.e2e.set("light.p50_ms", blockMedian(oneMedians), "ms")
	out.e2e.set("heavy.p50_ms", blockMedian(allMedians), "ms")
	out.e2e.set("heavy.p90_ms", blockMedian(allP90s), "ms")
	out.e2e.set("saturated_rps", perSecond, "1/s")
	out.e2e.set("peak_heap_mb", float64(heap.peak)/(1<<20), "MB")
	out.info["circuit.p50_s"] = out.e2e["light.p50_ms"].Value / 1e3
	out.info["circuits_per_s"] = perSecond
	out.info["one_caller_circuits"] = len(one.latencies)
	out.info["all_callers_circuits"] = len(all.latencies)
	return out, nil
}

// bootPhases is one traced circuit: harness-timed calls of the
// bootstrapper's public phases, then the square.
func (f *circuitFixture) bootPhases(i int, ivs *[]interval) (*ckks.Ciphertext, error) {
	timed := func(name string, fn func()) {
		t0 := time.Now()
		fn()
		*ivs = append(*ivs, interval{name: name, start: t0.UnixNano(), end: time.Now().UnixNano()})
	}
	b := f.boot
	var raised, ct0, ct1, out *ckks.Ciphertext
	timed("boot.modraise", func() { raised = b.ModRaise(f.inputs[i%len(f.inputs)].ct) })
	timed("boot.coeff2slot", func() { ct0, ct1 = b.CoeffToSlot(raised) })
	timed("boot.evalmod", func() { ct0 = b.EvalMod(ct0) })
	timed("boot.evalmod", func() { ct1 = b.EvalMod(ct1) })
	timed("boot.slot2coeff", func() { out = b.SlotToCoeff(ct0, ct1) })
	out.Scale = f.params.Scale // as Bootstrap does: the bookkeeping drift is below the noise
	var sq *ckks.Ciphertext
	var err error
	timed("square", func() { sq, err = square(b.Evaluator(), out) })
	return sq, err
}

// traceCircuit is the traced run of circuit-bootstrap: one caller
// untraced as the reference, then one caller with the collector and an op
// log on the bootstrapper's evaluator and every public phase timed.
func traceCircuit(opt options, out *outcome, total time.Duration) error {
	f, err := newCircuitFixture(opt.seed, 0)
	if err != nil {
		return err
	}
	if _, err := f.circuit(f.boot, circuitInputs-1); err != nil {
		return err
	}
	ref := &circuitRecorder{bits: math.Inf(1)}
	f.oneCaller(ref, time.Duration(0.3*float64(total)), 0)
	ref.merge(out)

	col := telemetry.NewCollector("perfbench")
	log := &opLog{}
	ev := f.boot.Evaluator()
	ev.SetObserver(ckks.Fanout(col, log))
	l := newLedger("one caller's traced circuits")
	out.ledger = l
	r := &circuitRecorder{bits: math.Inf(1)}
	phaseMs := map[string][]float64{}
	var e2e float64
	runtime.GC()
	rt0 := sampleRuntime()
	for i, deadline := inputStride, time.Now().Add(time.Duration(0.5*float64(total))); time.Now().Before(deadline); i++ {
		var ivs []interval
		t0 := time.Now()
		ct, err := f.bootPhases(i, &ivs)
		lat := time.Since(t0)
		r.note(f, i, i == inputStride, ct, lat, err)
		e2e += ms(lat)
		perPhase := map[string]float64{}
		for _, iv := range ivs {
			perPhase[iv.name] += float64(iv.end-iv.start) / 1e6
		}
		for name, v := range perPhase {
			phaseMs[name] = append(phaseMs[name], v)
		}
		for _, iv := range log.take() {
			iv.name = "ckks." + iv.name
			ivs = append(ivs, iv)
		}
		covered := selfTimes(ivs, l.add)
		l.add("circuit(residual)", lat-covered)
	}
	rt1 := sampleRuntime()
	ev.SetObserver(nil)
	r.merge(out)

	m := out.layers
	l.endToEndMs, l.units = e2e, len(r.latencies)
	var phases float64
	for _, v := range phaseMs {
		phases += sum(v)
	}
	l.boundaries = append(l.boundaries, boundary{"circuit", "bootstrap phases + square", e2e, phases})
	var opsCovered float64
	for name, row := range l.rows {
		if len(name) > 5 && name[:5] == "ckks." {
			opsCovered += row.selfMs
		}
	}
	l.boundaries = append(l.boundaries, boundary{"bootstrap phases + square", "evaluator op spans", phases, opsCovered})

	for name, unit := range bootLayers {
		key := "boot." + name[len("ckks.boot."):len(name)-len("_ms")]
		m.set(name, median(phaseMs[key]), unit)
	}
	if err := collectorMetrics(col.Snapshot(), m, l); err != nil {
		return err
	}
	runtimeMetrics(rt0, rt1, len(r.latencies), m)
	arenaMetrics(f.params, m)
	gs := ev.GuardStats()
	m.set("ckks.guard.checks", float64(gs.Verifies+gs.SpotChecks), "count")
	m.set("gen.late_p99_ms", 0, "ms") // closed loop: no schedule to run late against
	overhead := median(r.latencies)/median(ref.latencies) - 1
	m.set("trace.overhead_frac", overhead, "ratio")
	l.overhead = fmt.Sprintf("%.4f of the one-caller circuit time (untraced %.1f ms, traced %.1f ms)",
		overhead, median(ref.latencies), median(r.latencies))
	timeKernels(f.params, opt.seed, m)
	zeroLayers(m, serverLayers)
	return nil
}
