package main

import (
	"bytes"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"poseidon/internal/ckks"
	"poseidon/internal/server"
	"poseidon/internal/telemetry"
	"poseidon/internal/tracing"
)

// The server configuration copies cmd/poseidond's flag defaults, so the
// benchmark measures the daemon as shipped.
const (
	cfgMaxBatch        = 16
	cfgFlush           = 2 * time.Millisecond
	cfgQueueDepth      = 256
	cfgRegistryCap     = 64
	cfgGuardSeed       = 1
	cfgDegradeCooldown = 2 * time.Second

	// maxOutstanding caps the open-loop generator's requests in flight;
	// an arrival the cap refuses counts as failed. It is the server's
	// queue depth: more could only be refused by admission.
	maxOutstanding = cfgQueueDepth
	// closedLoopOutstanding is the saturated phase's fixed concurrency:
	// one full batch.
	closedLoopOutstanding = cfgMaxBatch
	// checksPerBlock arrivals of each block are decrypted and compared
	// with their plaintexts after the block ends.
	checksPerBlock = 3
	// setupRepeats independent set-ups are timed; setup_s is their median.
	// More would narrow setup_s, but set-ups are time a full check of
	// 70 runs spends outside the measured phases.
	setupRepeats = 3
	// minPrecisionBits below which a decrypted output counts as wrong. A
	// correct result at these parameters carries 20 bits or more.
	minPrecisionBits = 10
)

// The phases run in interleaved cycles of one block per phase.
const (
	blocks = 6

	// Offsets into the arrival sequence: every block of every phase reads
	// its own stretch.
	blockStride = 1 << 18
	phaseStride = 1 << 22
)

// serveSpec is one serve workload's traffic shape.
type serveSpec struct {
	name    string
	logN    int
	tenants int // distinct tenants
	keysets int // distinct key materials; tenant t uses keyset t % keysets
	burst   int // concurrent requests per arrival
	// keyRotationRPS is the rate of key re-uploads sent to popular,
	// resident tenants: registry writes beside the reads.
	keyRotationRPS float64
	// shares of the measured seconds for the light, heavy and saturated
	// phases: each goes where the workload's figures spread most.
	shares [3]float64
	build  func(f *fixture, rng *rand.Rand) error
}

// Indices of the serve phases.
const (
	lightPhase = iota
	heavyPhase
	saturatedPhase
)

// serve-rotate-burst's saturated throughput is its widest figure from
// block to block, so that phase gets as much time as the heavy one;
// serve-mixed-churn's heavy tail is its widest, so the heavy phase gets
// half the run.
var rotateBurst = &serveSpec{
	name: "serve-rotate-burst", logN: 13, tenants: 8, keysets: 8, burst: 4,
	shares: [3]float64{lightPhase: 0.2, heavyPhase: 0.4, saturatedPhase: 0.4},
	build:  buildRotateBurst,
}

var mixedChurn = &serveSpec{
	name: "serve-mixed-churn", logN: 11, tenants: 96, keysets: 8, burst: 1,
	keyRotationRPS: 2,
	shares:         [3]float64{lightPhase: 0.25, heavyPhase: 0.5, saturatedPhase: 0.25},
	build:          buildMixedChurn,
}

// burstSteps are the rotations of one serve-rotate-burst arrival: the
// baby steps a BSGS linear transform sends for one input.
var burstSteps = []int{1, 2, 4, 8}

// keyset is one tenant key material, serialized as a client uploads it.
type keyset struct {
	enc   *ckks.Encoder
	decr  *ckks.Decryptor
	encr  *ckks.Encryptor
	ev    *ckks.Evaluator // the client's own relinearizing evaluator, set-up only
	relin []byte
	rot   []byte
}

// sealed is one encrypted input and the values it encrypts.
type sealed struct {
	z     []complex128
	bytes []byte
}

// evalBody is one prebuilt evaluation request and what it should return.
type evalBody struct {
	tenant int
	op     server.Op
	steps  int
	width  int
	a, b   *sealed
	body   []byte
}

// fixture is everything a serve workload builds before its first timed
// request: parameters, keys, encrypted inputs, request bodies, and the
// server they are sent to.
type fixture struct {
	spec    *serveSpec
	seed    int64
	params  *ckks.Parameters
	keys    []*keyset
	tenants []string
	bodies  []*evalBody
	// arrival returns the body indices of arrival k: a seeded random
	// access sequence, the same for every run at one seed.
	arrival func(k int) []int
	// keyTenant returns the tenant of key re-upload k.
	keyTenant func(k int) int

	col     *telemetry.Collector
	tracer  *tracing.Tracer
	srv     *server.EvalServer
	handler http.Handler
}

func newParams(logN int) (*ckks.Parameters, error) {
	return ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     logN,
		LogQ:     []int{50, 40, 40, 40},
		LogP:     []int{51, 51},
		LogScale: 40,
	})
}

// newFixture builds the inputs of spec from seed. Nothing here depends on
// the server; startServer attaches one.
func newFixture(spec *serveSpec, seed int64) (*fixture, error) {
	params, err := newParams(spec.logN)
	if err != nil {
		return nil, err
	}
	f := &fixture{spec: spec, seed: seed, params: params}
	for t := 0; t < spec.tenants; t++ {
		f.tenants = append(f.tenants, fmt.Sprintf("tenant-%03d", t))
	}
	rng := rand.New(rand.NewSource(subSeed(seed, 1, 0)))
	if err := spec.build(f, rng); err != nil {
		return nil, err
	}
	return f, nil
}

// newKeyset generates key material i of the fixture.
func (f *fixture) newKeyset(i int, rotSteps []int, conj, relin bool) (*keyset, error) {
	kgen := ckks.NewKeyGenerator(f.params, subSeed(f.seed, 2, i))
	sk := kgen.GenSecretKey()
	pk := kgen.GenPublicKey(sk)
	ks := &keyset{
		enc:  ckks.NewEncoder(f.params),
		decr: ckks.NewDecryptor(f.params, sk),
		encr: ckks.NewEncryptor(f.params, pk, subSeed(f.seed, 3, i)),
	}
	var err error
	if relin {
		rlk := kgen.GenRelinearizationKey(sk)
		ks.ev = ckks.NewEvaluator(f.params, rlk, nil)
		if ks.relin, err = rlk.MarshalBinary(); err != nil {
			return nil, err
		}
	}
	if ks.rot, err = kgen.GenRotationKeys(sk, rotSteps, conj).MarshalBinary(); err != nil {
		return nil, err
	}
	return ks, nil
}

// seal encrypts fresh seeded values at level under keyset ks. A product
// input is the relinearized product of two such encryptions, at scale Δ²:
// what a client holds after a mulrelin and sends on to be rescaled.
func (f *fixture) seal(ks *keyset, rng *rand.Rand, level int, product bool) (*sealed, error) {
	fresh := func() ([]complex128, *ckks.Ciphertext) {
		z := make([]complex128, f.params.Slots)
		for i := range z {
			z[i] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
		}
		return z, ks.encr.Encrypt(ks.enc.Encode(z, level, f.params.Scale))
	}
	z, ct := fresh()
	if product {
		z2, ct2 := fresh()
		for i := range z {
			z[i] *= z2[i]
		}
		var err error
		if ct, err = ks.ev.TryMulRelin(ct, ct2); err != nil {
			return nil, err
		}
	}
	b, err := ct.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return &sealed{z: z, bytes: b}, nil
}

func (f *fixture) addBody(b *evalBody) {
	req := &server.EvalRequest{Tenant: f.tenants[b.tenant], Op: b.op, Steps: b.steps, Width: b.width, Ct: b.a.bytes}
	if b.b != nil {
		req.Ct2 = b.b.bytes
	}
	b.body = server.EncodeEvalRequest(req)
	f.bodies = append(f.bodies, b)
}

// buildRotateBurst: 8 tenants, each with its own keys and two input
// ciphertexts at the top level; an arrival is one tenant rotating one of
// its ciphertexts by every burst step at once.
func buildRotateBurst(f *fixture, rng *rand.Rand) error {
	const ctsPerTenant = 2
	top := f.params.MaxLevel()
	for t := 0; t < f.spec.tenants; t++ {
		ks, err := f.newKeyset(t, burstSteps, false, false)
		if err != nil {
			return err
		}
		f.keys = append(f.keys, ks)
		for c := 0; c < ctsPerTenant; c++ {
			in, err := f.seal(ks, rng, top, false)
			if err != nil {
				return err
			}
			for _, st := range burstSteps {
				f.addBody(&evalBody{tenant: t, op: server.OpRotate, steps: st, a: in})
			}
		}
	}
	per := ctsPerTenant * len(burstSteps)
	f.arrival = func(k int) []int {
		h := splitmix(f.seed, uint64(k))
		t := int(h % uint64(f.spec.tenants))
		c := int(h>>32) % ctsPerTenant
		first := t*per + c*len(burstSteps)
		out := make([]int, len(burstSteps))
		for i := range out {
			out[i] = first + i
		}
		return out
	}
	return nil
}

// mixedOps is serve-mixed-churn's fixed operation mix (weights sum to 100).
var mixedOps = []struct {
	op     server.Op
	weight int
}{
	{server.OpAdd, 20}, {server.OpSub, 10}, {server.OpMulRelin, 15}, {server.OpRescale, 10},
	{server.OpRotate, 15}, {server.OpConjugate, 10}, {server.OpInnerSum, 10}, {server.OpNegate, 10},
}

// buildMixedChurn: 96 tenants over 8 key materials, each sending at
// least once and the rest with a Zipf(1.2) popularity, so the 64-slot
// registry cannot hold every tenant a client sends. The pool's tenant
// counts, op counts and levels are exact quotas; the seed only decides
// how they pair up and in which order they arrive.
// Every body carries its own ciphertexts, at the top level or at level 1.
func buildMixedChurn(f *fixture, rng *rand.Rand) error {
	const (
		bodies       = 256
		plainPerPool = 6 // inputs at scale Δ per (keyset, level)
		rescalePool  = 2 // products at scale Δ² per (keyset, level), for rescale
		innerWidth   = 8
	)
	levels := []int{f.params.MaxLevel(), 1}
	type poolKey struct{ keyset, level int }
	plain := map[poolKey][]*sealed{}
	forRescale := map[poolKey][]*sealed{}
	for i := 0; i < f.spec.keysets; i++ {
		ks, err := f.newKeyset(i, []int{1, 2, 4}, true, true)
		if err != nil {
			return err
		}
		f.keys = append(f.keys, ks)
		for _, lv := range levels {
			k := poolKey{i, lv}
			for j := 0; j < plainPerPool+rescalePool; j++ {
				s, err := f.seal(ks, rng, lv, j >= plainPerPool)
				if err != nil {
					return err
				}
				if j < plainPerPool {
					plain[k] = append(plain[k], s)
				} else {
					forRescale[k] = append(forRescale[k], s)
				}
			}
		}
	}
	// Round-robin over each pool, so two bodies of one tenant rarely share
	// an input and no batch can share a hoisted decomposition.
	next := map[poolKey]int{}
	take := func(pool map[poolKey][]*sealed, k poolKey) *sealed {
		s := pool[k][next[k]%len(pool[k])]
		next[k]++
		return s
	}
	zipf := make([]float64, f.spec.tenants)
	for t := range zipf {
		zipf[t] = math.Pow(float64(t+1), -1.2)
	}
	weights := make([]float64, len(mixedOps))
	for i, m := range mixedOps {
		weights[i] = float64(m.weight)
	}
	// Every tenant sends at least once, so the working set is all 96
	// tenants over the 64 slots; the remaining bodies follow the Zipf
	// popularity. Bodies run from the most to the least popular tenant,
	// and each op is spread evenly over that order, so every op gets its
	// share of popular (resident) and rare (evicted) tenants whatever the
	// seed: a seed that happened to give the costliest op mostly to rare
	// tenants would move the tail by itself.
	tenants := quotas(zipf, bodies-f.spec.tenants)
	for t := 0; t < f.spec.tenants; t++ {
		tenants = append(tenants, t)
	}
	sort.Ints(tenants)
	ops := spread(quotas(weights, bodies), len(mixedOps), rng)
	for i := 0; i < bodies; i++ {
		b := &evalBody{tenant: tenants[i], op: mixedOps[ops[i]].op}
		k := poolKey{b.tenant % f.spec.keysets, levels[i%len(levels)]}
		switch b.op {
		case server.OpRescale:
			b.a = take(forRescale, k)
		case server.OpAdd, server.OpSub, server.OpMulRelin:
			b.a, b.b = take(plain, k), take(plain, k)
		default:
			b.a = take(plain, k)
		}
		switch b.op {
		case server.OpRotate:
			b.steps = []int{1, 2, 4}[i%3]
		case server.OpInnerSum:
			b.width = innerWidth
		}
		f.addBody(b)
	}
	// Arrivals walk the bodies in a fresh seeded order each cycle.
	var mu sync.Mutex
	perms := map[int][]int{}
	f.arrival = func(k int) []int {
		cycle := k / bodies
		mu.Lock()
		p, ok := perms[cycle]
		if !ok {
			p = rand.New(rand.NewSource(subSeed(f.seed, 4, cycle))).Perm(bodies)
			perms[cycle] = p
		}
		mu.Unlock()
		return []int{p[k%bodies]}
	}
	// Key rotations go to the eight most popular tenants, which stay
	// resident under any LRU order the traffic produces.
	f.keyTenant = func(k int) int { return int(splitmix(f.seed^0x6b6579, uint64(k)) % 8) }
	return nil
}

// spread orders draws of ncat categories so that each category recurs at
// an even pace: draw j of a category with c draws sits at (j+u)/c of the
// sequence, with u a seeded offset per category.
func spread(draws []int, ncat int, rng *rand.Rand) []int {
	count := make([]int, ncat)
	for _, c := range draws {
		count[c]++
	}
	type slot struct {
		at  float64
		cat int
	}
	var slots []slot
	for c, n := range count {
		u := rng.Float64()
		for j := 0; j < n; j++ {
			slots = append(slots, slot{(float64(j) + u) / float64(n), c})
		}
	}
	sort.SliceStable(slots, func(i, j int) bool { return slots[i].at < slots[j].at })
	out := make([]int, len(slots))
	for i, s := range slots {
		out[i] = s.cat
	}
	return out
}

// quotas splits n draws over categories in proportion to weights, by
// largest remainder: the exact counts, grouped by category, that the
// caller then orders. It returns the category of each draw.
func quotas(weights []float64, n int) []int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	type rem struct {
		cat  int
		frac float64
	}
	var out []int
	var rems []rem
	for c, w := range weights {
		exact := w / total * float64(n)
		whole := int(exact)
		for i := 0; i < whole; i++ {
			out = append(out, c)
		}
		rems = append(rems, rem{c, exact - float64(whole)})
	}
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].frac > rems[j].frac })
	for i := 0; len(out) < n; i++ {
		out = append(out, rems[i].cat)
	}
	return out
}

// startServer builds the evaluation server the daemon would run and
// uploads every tenant's keys through the HTTP handler, least popular
// first so the popular tenants end resident.
func (f *fixture) startServer(traced bool, capacity int) error {
	f.col = telemetry.NewCollector("perfbench")
	f.tracer = nil
	if traced {
		f.tracer = &tracing.Tracer{Recorder: tracing.NewFlightRecorder(capacity, 1, 0.95)}
	}
	srv, err := server.NewEvalServer(server.Config{
		Params:          f.params,
		MaxBatch:        cfgMaxBatch,
		FlushTimeout:    cfgFlush,
		QueueDepth:      cfgQueueDepth,
		RegistryCap:     cfgRegistryCap,
		GuardSeed:       cfgGuardSeed,
		OpMaxAttempts:   1,
		MaxJobAttempts:  1,
		DegradeCooldown: cfgDegradeCooldown,
		Collector:       f.col,
		Tracer:          f.tracer,
	})
	if err != nil {
		return err
	}
	f.srv, f.handler = srv, srv.Handler()
	for t := len(f.tenants) - 1; t >= 0; t-- {
		if code := f.upload(t); code != http.StatusNoContent {
			return fmt.Errorf("key upload for %s: HTTP %d", f.tenants[t], code)
		}
	}
	return nil
}

func (f *fixture) stopServer() {
	if f.srv != nil {
		f.srv.Close()
		f.srv, f.handler = nil, nil
	}
}

// post sends one request through the server's HTTP handler, in process.
func (f *fixture) post(path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	f.handler.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// upload registers tenant t's keys, building the envelope as a client would.
func (f *fixture) upload(t int) int {
	ks := f.keys[t%len(f.keys)]
	code, _ := f.post("/v1/keys", server.EncodeKeyUpload(&server.KeyUpload{
		Tenant: f.tenants[t], Relin: ks.relin, Rotations: ks.rot,
	}))
	return code
}

// phase collects one timed phase's observations over all its blocks.
type phase struct {
	name     string
	duration time.Duration // total of the blocks' scheduled lengths
	// blockEnds[i] is len(latencies) when block i ended; blockRates[i]
	// is the requests per second block i completed inside its window.
	blockEnds  []int
	blockRates []float64
	// blockMisses[i] is the registry misses of block i.
	blockMisses []int64

	mu        sync.Mutex
	latencies []float64 // ms per successful evaluation request, from when it was due
	lateness  []float64 // ms per open-loop arrival, sent minus due
	uploads   []float64 // ms per key upload (re-uploads after a miss and rotations)
	checks    []pending // sampled responses, checked after each block
	done      []time.Time
	windows   [][2]time.Time // each block's start and scheduled end

	attempted, failed, misses, evals atomic.Int64
	rotations, bytesIn, bytesOut     atomic.Int64

	bits  float64 // worst precision of the checked responses
	wrong []string
}

func newPhase(name string) *phase { return &phase{name: name, bits: math.Inf(1)} }

type pending struct {
	body *evalBody
	resp []byte
}

func (p *phase) record(lat time.Duration, at time.Time) {
	p.mu.Lock()
	p.latencies = append(p.latencies, ms(lat))
	p.done = append(p.done, at)
	p.mu.Unlock()
}

// eval sends one evaluation request. A 404 means the registry evicted
// the tenant: the client re-uploads its keys and resends, and that time
// is part of the request's latency.
func (f *fixture) eval(p *phase, b *evalBody) ([]byte, bool) {
	p.evals.Add(1)
	for attempt := 0; attempt < 3; attempt++ {
		code, out := f.post("/v1/eval", b.body)
		switch code {
		case http.StatusOK:
			return out, true
		case http.StatusNotFound:
			p.misses.Add(1)
			if !f.timedUpload(p, b.tenant) {
				return nil, false
			}
		default:
			return nil, false
		}
	}
	return nil, false
}

func (f *fixture) timedUpload(p *phase, t int) bool {
	t0 := time.Now()
	code := f.upload(t)
	d := time.Since(t0)
	p.mu.Lock()
	p.uploads = append(p.uploads, ms(d))
	p.mu.Unlock()
	return code == http.StatusNoContent
}

// send runs one eval request of an arrival due at due, recording its
// outcome in p; sample keeps the response for checking.
func (f *fixture) send(p *phase, idx int, due time.Time, sample bool) {
	b := f.bodies[idx]
	resp, ok := f.eval(p, b)
	now := time.Now()
	if b.op == server.OpRotate {
		p.rotations.Add(1)
	}
	p.bytesIn.Add(int64(len(b.body)))
	if !ok {
		p.failed.Add(1)
		return
	}
	p.bytesOut.Add(int64(len(resp)))
	p.record(now.Sub(due), now)
	if sample {
		p.mu.Lock()
		p.checks = append(p.checks, pending{b, resp})
		p.mu.Unlock()
	}
}

// rotateKeys re-uploads tenant keyTenant(k): a key rotation.
func (f *fixture) rotateKeys(p *phase, k int) {
	p.attempted.Add(1)
	if !f.timedUpload(p, f.keyTenant(k)) {
		p.failed.Add(1)
	}
}

// sampleSet picks checksPerBlock distinct arrival indices below n.
func sampleSet(seed int64, stream, n int) map[int]bool {
	set := map[int]bool{}
	rng := rand.New(rand.NewSource(subSeed(seed, 5, stream)))
	for _, k := range rng.Perm(n) {
		if len(set) == checksPerBlock {
			break
		}
		set[k] = true
	}
	return set
}

// openLoop offers rps requests per second to p for dur: evenly spaced
// arrivals, whatever the server's progress, each request timed from when
// it was due. first is the block's offset into the arrival sequence.
func (f *fixture) openLoop(p *phase, rps float64, dur time.Duration, first int) {
	type event struct {
		at  time.Duration
		k   int // arrival index within the block, or key rotation index
		key bool
	}
	var events []event
	interval := time.Duration(float64(time.Second) * float64(f.spec.burst) / rps)
	for k := 0; time.Duration(k)*interval < dur; k++ {
		events = append(events, event{at: time.Duration(k) * interval, k: k})
	}
	arrivals := len(events)
	if r := f.spec.keyRotationRPS; r > 0 {
		ki := time.Duration(float64(time.Second) / r)
		for k := 0; time.Duration(k)*ki+ki/2 < dur; k++ {
			events = append(events, event{at: time.Duration(k)*ki + ki/2, k: first + k, key: true})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })
	sampled := sampleSet(f.seed, first, arrivals)

	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	start := time.Now()
	for _, ev := range events {
		due := start.Add(ev.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late := time.Since(due)
		if ev.key {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				f.rotateKeys(p, k)
			}(ev.k)
			continue
		}
		p.mu.Lock()
		p.lateness = append(p.lateness, ms(late))
		p.mu.Unlock()
		for _, idx := range f.arrival(first + ev.k) {
			p.attempted.Add(1)
			select {
			case sem <- struct{}{}:
			default:
				p.failed.Add(1) // refused by the outstanding cap
				continue
			}
			wg.Add(1)
			go func(idx int, sample bool) {
				defer wg.Done()
				defer func() { <-sem }()
				f.send(p, idx, due, sample)
			}(idx, sampled[ev.k])
		}
	}
	wg.Wait()
	p.closeBlock(start, dur)
}

// closedLoop keeps closedLoopOutstanding requests of p in flight for dur:
// each client sends its next arrival once the previous one has completed.
func (f *fixture) closedLoop(p *phase, dur time.Duration, first int) {
	clients := closedLoopOutstanding / f.spec.burst
	sampled := sampleSet(f.seed, first, 2*clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := int(next.Add(1) - 1)
				due := time.Now()
				var burst sync.WaitGroup
				for _, idx := range f.arrival(first + k) {
					p.attempted.Add(1)
					burst.Add(1)
					go func(idx int) {
						defer burst.Done()
						f.send(p, idx, due, sampled[k])
					}(idx)
				}
				burst.Wait()
			}
		}()
	}
	if r := f.spec.keyRotationRPS; r > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ki := time.Duration(float64(time.Second) / r)
			for k := 0; ; k++ {
				due := start.Add(time.Duration(k)*ki + ki/2)
				if !due.Before(deadline) {
					return
				}
				time.Sleep(time.Until(due))
				f.rotateKeys(p, first+k)
			}
		}()
	}
	wg.Wait()
	p.closeBlock(start, dur)
}

// closeBlock accounts one finished block of p, scheduled for dur from
// start: where its latencies end and its completions inside the window.
func (p *phase) closeBlock(start time.Time, dur time.Duration) {
	end := start.Add(dur)
	p.duration += dur
	p.windows = append(p.windows, [2]time.Time{start, end})
	// The rate runs to the last completion inside the window rather than
	// to the window's end, so it is not quantized to whole requests (whole
	// bursts, on serve-rotate-burst) per window.
	n, last := 0, start
	for _, t := range p.done {
		if !t.Before(start) && !t.After(end) {
			n++
			if t.After(last) {
				last = t
			}
		}
	}
	rate := 0.0
	if n > 0 {
		rate = float64(n) / last.Sub(start).Seconds()
	}
	p.blockEnds = append(p.blockEnds, len(p.latencies))
	p.blockRates = append(p.blockRates, rate)
	missed := p.misses.Load()
	for _, m := range p.blockMisses {
		missed -= m
	}
	p.blockMisses = append(p.blockMisses, missed)
}

// perBlock is the median over p's blocks of q-quantile latency of each
// block. A block that differs from the others is a slow stretch of the
// host, and the median over blocks sets it aside.
func (p *phase) perBlock(q float64) float64 { return median(p.blockQuantiles(q)) }

// blockQuantiles is the q-quantile latency of each of p's blocks.
func (p *phase) blockQuantiles(q float64) []float64 {
	var vals []float64
	start := 0
	for _, end := range p.blockEnds {
		vals = append(vals, quantile(append([]float64(nil), p.latencies[start:end]...), q))
		start = end
	}
	return vals
}

// completedRate is the median over p's blocks of the requests each block
// completed per second inside its window.
func (p *phase) completedRate() float64 { return median(append([]float64(nil), p.blockRates...)) }

// verify decrypts the sampled responses gathered since the last call and
// compares them with the plaintext results, folding the worst precision
// in bits and every wrong output into p.
func (f *fixture) verify(p *phase) {
	for _, c := range p.checks {
		got, err := f.decrypt(c.body, c.resp)
		if err != nil {
			p.wrong = append(p.wrong, fmt.Sprintf("%s %s: %v", p.name, c.body.op, err))
			continue
		}
		want := expected(c.body, f.params.Slots)
		worst := 0.0
		for i := range want {
			worst = math.Max(worst, cmplx.Abs(got[i]-want[i]))
		}
		b := bitsOf(worst)
		if b < minPrecisionBits {
			p.wrong = append(p.wrong, fmt.Sprintf("%s %s for %s: %.1f bits", p.name, c.body.op, f.tenants[c.body.tenant], b))
		}
		p.bits = math.Min(p.bits, b)
	}
	p.checks = nil
}

func (f *fixture) decrypt(b *evalBody, resp []byte) ([]complex128, error) {
	ct := new(ckks.Ciphertext)
	if err := ct.UnmarshalBinary(resp); err != nil {
		return nil, err
	}
	ks := f.keys[b.tenant%len(f.keys)]
	return ks.enc.Decode(ks.decr.Decrypt(ct)), nil
}

// expected computes an op's result on the plaintext values.
func expected(b *evalBody, n int) []complex128 {
	a := b.a.z
	out := make([]complex128, n)
	for j := range out {
		switch b.op {
		case server.OpAdd:
			out[j] = a[j] + b.b.z[j]
		case server.OpSub:
			out[j] = a[j] - b.b.z[j]
		case server.OpMulRelin:
			out[j] = a[j] * b.b.z[j]
		case server.OpRescale:
			out[j] = a[j]
		case server.OpRotate:
			out[j] = a[(j+b.steps)%n]
		case server.OpConjugate:
			out[j] = cmplx.Conj(a[j])
		case server.OpInnerSum:
			for t := 0; t < b.width; t++ {
				out[j] += a[(j+t)%n]
			}
		case server.OpNegate:
			out[j] = -a[j]
		}
	}
	return out
}

// warmUp sends every body once, closed loop at full concurrency, so the
// arenas and scratch pools are filled before the first timed request.
func (f *fixture) warmUp() error {
	p := newPhase("warm-up")
	var next atomic.Int64
	var wg sync.WaitGroup
	var bad atomic.Int64
	for c := 0; c < closedLoopOutstanding; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < len(f.bodies) && k < 64; k = int(next.Add(1) - 1) {
				if _, ok := f.eval(p, f.bodies[k]); !ok {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := bad.Load(); n > 0 {
		return fmt.Errorf("warm-up: %d requests failed", n)
	}
	return nil
}

// heapSampler records the peak HeapInuse while timed phases run. It reads
// runtime/metrics, whose heap classes sum to MemStats.HeapInuse, because
// ReadMemStats stops the world on every sample.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
	// queueMax is the deepest dispatch queue seen (sampled only when srv is set).
	queueMax int
}

func startHeapSampler(srv *server.EvalServer, every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		s := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
		for {
			rtmetrics.Read(s)
			if inUse := s[0].Value.Uint64() + s[1].Value.Uint64(); inUse > h.peak {
				h.peak = inUse
			}
			if srv != nil {
				if q := srv.Stats().QueueLen; q > h.queueMax {
					h.queueMax = q
				}
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and waits for it.
func (h *heapSampler) finish() {
	close(h.stop)
	<-h.done
}

// runServe runs one serve workload: timed set-ups, then the light, heavy
// and saturated phases, each followed by its correctness checks.
func runServe(opt options, spec *serveSpec) (*outcome, error) {
	r, ok := opt.rates[spec.name]
	if !ok {
		return nil, fmt.Errorf("-rates gives no light:heavy rates for %s", spec.name)
	}
	light, heavy := r[0], r[1]
	total := time.Duration(opt.seconds * float64(time.Second))
	out := newOutcome()
	out.info["params"] = map[string]any{"logN": spec.logN, "logQ": []int{50, 40, 40, 40}, "logP": []int{51, 51}, "logScale": 40, "workers": 0, "fusionDegree": 0}
	out.info["server_config"] = map[string]any{
		"max_batch": cfgMaxBatch, "flush": cfgFlush.String(), "queue_depth": cfgQueueDepth,
		"registry_cap": cfgRegistryCap, "guard_seed": cfgGuardSeed, "collector": true,
		"tracer": opt.trace, "op_attempts": 1, "job_attempts": 1, "degrade_cooldown": cfgDegradeCooldown.String(),
	}
	out.info["rates_rps"] = map[string]float64{"light": light, "heavy": heavy}
	out.info["traffic"] = map[string]any{"tenants": spec.tenants, "keysets": spec.keysets, "burst": spec.burst,
		"key_rotation_rps": spec.keyRotationRPS, "closed_loop_outstanding": closedLoopOutstanding, "max_outstanding": maxOutstanding}

	if opt.trace {
		return out, traceServe(opt, spec, out, light, heavy, total)
	}

	var setups []float64
	var f *fixture
	for i := 0; i < setupRepeats; i++ {
		if f != nil {
			f.stopServer()
			f = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if f, err = newFixture(spec, opt.seed); err != nil {
			return nil, err
		}
		if err := f.startServer(false, 0); err != nil {
			return nil, err
		}
		if err := f.warmUp(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer f.stopServer()
	out.info["setup_s_each"] = setups
	runtime.GC()

	heap := startHeapSampler(nil, 50*time.Millisecond)
	lp, hp, sp := f.runPhases(light, heavy, total)
	heap.finish()
	for _, p := range []*phase{lp, hp, sp} {
		out.addPhase(p)
	}

	out.e2e.set("setup_s", median(setups), "s")
	out.e2e.set("light.p50_ms", lp.perBlock(0.5), "ms")
	out.e2e.set("heavy.p50_ms", hp.perBlock(0.5), "ms")
	out.e2e.set("heavy.p90_ms", hp.perBlock(0.9), "ms")
	out.e2e.set("saturated_rps", sp.completedRate(), "1/s")
	out.e2e.set("peak_heap_mb", float64(heap.peak)/(1<<20), "MB")
	out.info["block_figures"] = map[string][]float64{
		"light.p50_ms": lp.blockQuantiles(0.5), "heavy.p50_ms": hp.blockQuantiles(0.5),
		"heavy.p90_ms": hp.blockQuantiles(0.9), "saturated_rps": sp.blockRates,
	}
	out.info["block_registry_misses"] = map[string][]int64{
		"light": lp.blockMisses, "heavy": hp.blockMisses, "saturated": sp.blockMisses,
	}
	late := append(append([]float64(nil), lp.lateness...), hp.lateness...)
	out.info["gen.late_p99_ms"] = quantile(late, 0.99)
	out.info["heavy_samples"] = len(hp.latencies)
	// Reported for reference only: on a shared host p99 swings with rare
	// stalls far more than any bound a regression check could use.
	out.info["heavy.p99_ms"] = quantile(hp.latencies, 0.99)
	return out, nil
}

// runPhases runs the light, heavy and saturated phases on f's server in
// interleaved cycles of one block each, so every phase samples the whole
// run rather than one stretch of it, and checks each block's sampled
// responses when it ends.
func (f *fixture) runPhases(light, heavy float64, total time.Duration) (lp, hp, sp *phase) {
	part := func(share float64) time.Duration { return time.Duration(share * float64(total) / float64(blocks)) }
	lp, hp, sp = newPhase("light"), newPhase("heavy"), newPhase("saturated")
	for b := 0; b < blocks; b++ {
		// Each block reads its own stretch of the arrival sequence.
		f.openLoop(lp, light, part(f.spec.shares[lightPhase]), b*blockStride)
		f.verify(lp)
		f.openLoop(hp, heavy, part(f.spec.shares[heavyPhase]), phaseStride+b*blockStride)
		f.verify(hp)
		f.closedLoop(sp, part(f.spec.shares[saturatedPhase]), 2*phaseStride+b*blockStride)
		f.verify(sp)
	}
	return lp, hp, sp
}

// addPhase folds a finished phase's counts and checks into the outcome.
func (out *outcome) addPhase(p *phase) {
	out.attempted += p.attempted.Load()
	out.failed += p.failed.Load() + int64(len(p.wrong))
	out.wrong = append(out.wrong, p.wrong...)
	if prev, ok := out.e2e["precision_bits"]; !ok || p.bits < prev.Value {
		out.e2e.set("precision_bits", p.bits, "bits")
	}
	out.info[p.name+"_requests"] = map[string]any{
		"attempted": p.attempted.Load(), "failed": p.failed.Load(), "completed": len(p.latencies),
		"registry_misses": p.misses.Load(), "seconds": p.duration.Seconds(),
	}
}
