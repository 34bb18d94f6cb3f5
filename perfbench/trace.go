package main

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"poseidon/internal/arch"
	"poseidon/internal/ckks"
	"poseidon/internal/server"
	"poseidon/internal/telemetry"
	"poseidon/internal/trace"
)

// ledgerKinds are the op kinds the per-layer metrics report.
var ledgerKinds = []trace.Kind{
	trace.HAdd, trace.HAddPlain, trace.PMult, trace.CMult,
	trace.Rescale, trace.Rotation, trace.Keyswitch, trace.LinTrans,
}

// linTransPhases are the double-hoisted linear transform's sub-phases, as
// the evaluator names them.
var linTransPhases = []string{"hoist", "baby", "giant", "finish"}

// runtimeSample is the Go runtime's allocation and CPU counters at one
// instant.
type runtimeSample struct {
	totalAlloc    uint64
	gcCPU, allCPU float64
}

func sampleRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	rtmetrics.Read(s)
	return runtimeSample{totalAlloc: ms.TotalAlloc, gcCPU: s[0].Value.Float64(), allCPU: s[1].Value.Float64()}
}

// runtimeMetrics records allocation per operation and the GC's share of
// CPU between two samples.
func runtimeMetrics(before, after runtimeSample, ops int, m metrics) {
	m.set("ckks.alloc_mb_per_op", float64(after.totalAlloc-before.totalAlloc)/(1<<20)/float64(max(ops, 1)), "MB")
	frac := 0.0
	if d := after.allCPU - before.allCPU; d > 0 {
		frac = (after.gcCPU - before.gcCPU) / d
	}
	m.set("ckks.gc_cpu_frac", frac, "ratio")
}

// snapshotDelta is the collector activity between two snapshots of it.
func snapshotDelta(before, after *telemetry.Snapshot) *telemetry.Snapshot {
	type key struct {
		kind  trace.Kind
		limbs int
	}
	prev := map[key]telemetry.KeyStat{}
	for _, ks := range before.Keys {
		prev[key{ks.Kind, ks.Limbs}] = ks
	}
	d := &telemetry.Snapshot{Workload: after.Workload, Phases: map[string]telemetry.PhaseStat{}}
	for _, ks := range after.Keys {
		if p, ok := prev[key{ks.Kind, ks.Limbs}]; ok {
			ks.Ops -= p.Ops
			ks.Count -= p.Count
			ks.SumNs -= p.SumNs
			ks.Hist.Sub(p.Hist)
		}
		if ks.Count > 0 {
			d.Keys = append(d.Keys, ks)
		}
	}
	for name, ps := range after.Phases {
		p := before.Phases[name]
		d.Phases[name] = telemetry.PhaseStat{Count: ps.Count - p.Count, SumNs: ps.SumNs - p.SumNs}
	}
	return d
}

// collectorMetrics reports the op-kind and linear-transform tables of a
// collector snapshot, with the accelerator model's price of the same ops.
func collectorMetrics(snap *telemetry.Snapshot, m metrics, l *ledger) error {
	model, err := arch.NewModel(arch.U280(), arch.PaperParams())
	if err != nil {
		return err
	}
	cal := telemetry.Calibrate(snap, model)
	ratio := map[trace.Kind]trace.KindCalib{}
	for _, kc := range cal.PerKind {
		ratio[kc.Kind] = kc
	}
	byKind := snap.ByKind()
	for _, k := range ledgerKinds {
		ks := byKind[k]
		name := "ckks." + k.String()
		m.set(name+".count", float64(ks.Count), "count")
		m.set(name+".busy_ms", float64(ks.SumNs)/1e6, "ms")
		m.set(name+".p50_us", ks.P50Ns/1e3, "us")
		kc := ratio[k]
		m.set(name+".model_ratio", kc.Ratio, "ratio")
		if ks.Count > 0 {
			l.calib = append(l.calib, calibRow{kind: k.String(), count: ks.Count,
				measuredMs: kc.MeasuredSec * 1e3, modelMs: kc.ModeledSec * 1e3, ratio: kc.Ratio})
		}
	}
	for _, ph := range linTransPhases {
		m.set("ckks.LinTrans."+ph+".busy_ms", float64(snap.Phases["LinTrans/"+ph].SumNs)/1e6, "ms")
	}
	return nil
}

// arenaMetrics reports the ring arenas' occupancy.
func arenaMetrics(params *ckks.Parameters, m metrics) {
	st := params.ArenaStats()
	m.set("ring.arena_peak_mb", float64(st.PeakBytes)/(1<<20), "MB")
	m.set("ring.arena_in_use_mb", float64(st.BytesInUse)/(1<<20), "MB")
}

// zeroLayers reports the per-layer metrics of layers a workload never
// runs as 0, so every traced run reports the same metric set.
func zeroLayers(m metrics, names map[string]string) {
	for name, unit := range names {
		if _, ok := m[name]; !ok {
			m.set(name, 0, unit)
		}
	}
}

// serverLayers are the serving layer's per-layer metrics and units.
var serverLayers = map[string]string{
	"server.decode_ms.p50": "ms", "server.ingest_ms.p50": "ms", "server.encode_ms.p50": "ms",
	"server.queue_ms.p50": "ms", "server.queue_ms.p99": "ms", "server.exec_ms.p50": "ms",
	"server.deliver_ms.p99": "ms", "server.unaccounted_ms.p99": "ms",
	"server.batch_mean": "count", "server.batched_frac": "ratio", "server.queue_len.max": "count",
	"server.hoist_shared_frac": "ratio", "server.registry_miss_frac": "ratio", "server.evictions": "count",
	"server.key_upload_ms.p50": "ms", "server.rejected": "count", "server.timeouts": "count",
	"server.op_errors":   "count",
	"wire.decode_req_us": "us", "wire.unmarshal_ct_us": "us", "wire.marshal_ct_us": "us",
	"wire.bytes_in": "bytes", "wire.bytes_out": "bytes",
}

// bootLayers are the bootstrapping phases' per-layer metrics and units.
var bootLayers = map[string]string{
	"ckks.boot.modraise_ms": "ms", "ckks.boot.coeff2slot_ms": "ms",
	"ckks.boot.evalmod_ms": "ms", "ckks.boot.slot2coeff_ms": "ms",
}

// serverSample is the serving counters at one instant.
type serverSample struct {
	stats  server.Stats
	snap   *telemetry.Snapshot
	guards map[string]guardSample
	rt     runtimeSample
}

type guardSample struct {
	ev     *ckks.Evaluator
	checks uint64
}

func (f *fixture) sampleServer() serverSample {
	s := serverSample{stats: f.srv.Stats(), snap: f.col.Snapshot(), guards: map[string]guardSample{}}
	// Acquire marks a tenant most recently used: walk from the least
	// popular tenant to the most popular, the order the traffic keeps.
	reg := f.srv.Registry()
	for i := len(f.tenants) - 1; i >= 0; i-- {
		t := f.tenants[i]
		e, err := reg.Acquire(t)
		if err != nil {
			continue // not resident
		}
		gs := e.Evaluator().GuardStats()
		s.guards[t] = guardSample{ev: e.Evaluator(), checks: gs.Verifies + gs.SpotChecks}
		reg.Release(e)
	}
	s.rt = sampleRuntime()
	return s
}

// traceServe is the traced run of a serve workload. It measures the
// saturated phase untraced as the reference for the tracing overhead,
// then runs the three phases, one block each, on a fresh server with
// every request traced, and reports the heavy phase's per-layer account.
func traceServe(opt options, spec *serveSpec, out *outcome, light, heavy float64, total time.Duration) error {
	scale := func(s float64) time.Duration { return time.Duration(s * float64(total)) }
	f, err := newFixture(spec, opt.seed)
	if err != nil {
		return err
	}
	if err := f.startServer(false, 0); err != nil {
		return err
	}
	if err := f.warmUp(); err != nil {
		return err
	}
	ref := newPhase("saturated-untraced")
	f.closedLoop(ref, scale(spec.shares[saturatedPhase]), 2*phaseStride)
	f.verify(ref)
	out.addPhase(ref)
	f.stopServer()
	runtime.GC()

	const capacity = 1 << 18
	if err := f.startServer(true, capacity); err != nil {
		return err
	}
	defer f.stopServer()
	if err := f.warmUp(); err != nil {
		return err
	}
	lp, hp, sp := newPhase("light"), newPhase("heavy"), newPhase("saturated")
	f.openLoop(lp, light, scale(spec.shares[lightPhase]), 0)
	f.verify(lp)
	runtime.GC()
	before := f.sampleServer()
	sampler := startHeapSampler(f.srv, 5*time.Millisecond)
	f.openLoop(hp, heavy, scale(spec.shares[heavyPhase]), phaseStride)
	sampler.finish()
	after := f.sampleServer()
	arenaMetrics(f.params, out.layers)
	f.verify(hp)
	f.closedLoop(sp, scale(spec.shares[saturatedPhase]), 2*phaseStride)
	f.verify(sp)
	for _, p := range []*phase{lp, hp, sp} {
		out.addPhase(p)
	}

	rec := f.tracer.Recorder.Stats()
	if rec.Dropped > 0 || rec.Total > capacity {
		return fmt.Errorf("flight recorder kept %d of %d traces", rec.Total-rec.Dropped, rec.Total)
	}
	m := out.layers
	l := newLedger("the heavy phase's requests")
	out.ledger = l
	if err := f.spanMetrics(hp, sp.windows[0][0], m, l); err != nil {
		return err
	}

	d := after.stats
	occ, jobs := uint64(0), uint64(0)
	batched := uint64(0)
	for i := range d.Occupancy {
		n := d.Occupancy[i] - before.stats.Occupancy[i]
		occ += n
		jobs += n * uint64(i)
		if i >= 2 {
			batched += n * uint64(i)
		}
	}
	m.set("server.batch_mean", float64(jobs)/float64(max(occ, 1)), "count")
	m.set("server.batched_frac", float64(batched)/float64(max(jobs, 1)), "ratio")
	m.set("server.queue_len.max", float64(sampler.queueMax), "count")
	m.set("server.hoist_shared_frac", float64(d.HoistShared-before.stats.HoistShared)/float64(max(hp.rotations.Load(), 1)), "ratio")
	m.set("server.registry_miss_frac", float64(hp.misses.Load())/float64(max(hp.evals.Load(), 1)), "ratio")
	m.set("server.evictions", float64(d.Evictions-before.stats.Evictions), "count")
	m.set("server.key_upload_ms.p50", median(hp.uploads), "ms")
	m.set("server.rejected", float64(d.Rejected-before.stats.Rejected), "count")
	m.set("server.timeouts", float64(d.Timeouts-before.stats.Timeouts), "count")
	m.set("server.op_errors", float64(d.OpErrors-before.stats.OpErrors), "count")
	completed := len(hp.latencies)
	m.set("wire.bytes_in", float64(hp.bytesIn.Load())/float64(max(hp.evals.Load(), 1)), "bytes")
	m.set("wire.bytes_out", float64(hp.bytesOut.Load())/float64(max(completed, 1)), "bytes")

	var checks uint64
	for t, a := range after.guards {
		if b, ok := before.guards[t]; ok && b.ev == a.ev {
			checks += a.checks - b.checks
		}
	}
	m.set("ckks.guard.checks", float64(checks), "count")
	runtimeMetrics(before.rt, after.rt, completed, m)
	if err := collectorMetrics(snapshotDelta(before.snap, after.snap), m, l); err != nil {
		return err
	}

	late := append(append([]float64(nil), lp.lateness...), hp.lateness...)
	m.set("gen.late_p99_ms", quantile(late, 0.99), "ms")
	overhead := ref.completedRate()/sp.completedRate() - 1
	m.set("trace.overhead_frac", overhead, "ratio")
	l.overhead = fmt.Sprintf("%.4f of saturated throughput (untraced %.2f req/s, traced %.2f req/s)",
		overhead, ref.completedRate(), sp.completedRate())

	f.wireTimings(m)
	timeKernels(f.params, opt.seed, m)
	zeroLayers(m, bootLayers)
	return nil
}

// spanMetrics reads the flight recorder's trees of the requests that
// started in phase p (before end) into the server span metrics and the
// ledger.
func (f *fixture) spanMetrics(p *phase, end time.Time, m metrics, l *ledger) error {
	perName := map[string][]float64{}
	var unaccounted []float64
	var rootMs, execMs, opsMs float64
	lo, hi := p.windows[0][0].UnixNano(), end.UnixNano()
	n := 0
	for _, tr := range f.tracer.Recorder.Snapshot() {
		if tr.Name != "http-eval" || tr.StartNs < lo || tr.StartNs >= hi {
			continue
		}
		n++
		rootMs += float64(tr.DurNs) / 1e6
		sums := map[string]int64{}
		var children int64
		for _, sp := range tr.Spans[1:] {
			if sp.Parent != 1 || sp.DurNs < 0 {
				continue
			}
			children += sp.DurNs
			sums[sp.Name] += sp.DurNs
			if sp.Name != "exec" {
				l.add("server."+sp.Name, time.Duration(sp.DurNs))
				continue
			}
			var ops []interval
			for _, op := range tr.Spans[1:] {
				if op.Parent == sp.Ref {
					ops = append(ops, interval{name: op.Name, start: op.StartNs, end: op.StartNs + op.DurNs})
				}
			}
			covered := selfTimes(ops, func(name string, self time.Duration) { l.add("ckks."+name, self) })
			l.add("server.exec(self)", time.Duration(sp.DurNs)-covered)
			execMs += float64(sp.DurNs) / 1e6
			opsMs += ms(covered)
		}
		for name, v := range sums {
			perName[name] = append(perName[name], float64(v)/1e6)
		}
		un := tr.DurNs - children
		unaccounted = append(unaccounted, float64(un)/1e6)
		l.add("server.unaccounted", time.Duration(un))
	}
	if n == 0 {
		return fmt.Errorf("no traced requests in the %s phase", p.name)
	}
	var e2e float64
	for _, v := range p.latencies {
		e2e += v
	}
	l.endToEndMs, l.units = e2e, len(p.latencies)
	l.rows["client(generator,handler entry,key re-uploads)"] = &ledgerRow{count: int64(len(p.latencies)), selfMs: e2e - rootMs}
	l.boundaries = append(l.boundaries,
		boundary{"request (from due)", "http-eval root span", e2e, rootMs},
		boundary{"http-eval root span", "root children", rootMs, rootMs - sum(unaccounted)},
		boundary{"exec spans", "evaluator op spans", execMs, opsMs})

	m.set("server.decode_ms.p50", median(perName["decode"]), "ms")
	m.set("server.ingest_ms.p50", median(perName["ingest"]), "ms")
	m.set("server.encode_ms.p50", median(perName["encode"]), "ms")
	m.set("server.queue_ms.p50", quantile(perName["queue"], 0.5), "ms")
	m.set("server.queue_ms.p99", quantile(perName["queue"], 0.99), "ms")
	m.set("server.exec_ms.p50", median(perName["exec"]), "ms")
	m.set("server.deliver_ms.p99", quantile(perName["deliver"], 0.99), "ms")
	m.set("server.unaccounted_ms.p99", quantile(unaccounted, 0.99), "ms")
	return nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// wireTimings times the wire codec on the workload's own request bodies:
// envelope decoding, ciphertext unmarshalling, and marshalling a result.
func (f *fixture) wireTimings(m metrics) {
	reqs := make([]*server.EvalRequest, len(f.bodies))
	cts := make([]*ckks.Ciphertext, len(f.bodies))
	for i, b := range f.bodies {
		// The bodies were built by this program and served successfully
		// during warm-up; decoding them cannot fail here.
		reqs[i], _ = server.DecodeEvalRequest(b.body)
		cts[i] = new(ckks.Ciphertext)
		_ = cts[i].UnmarshalBinary(b.a.bytes)
	}
	per := func(fn func(i int)) float64 {
		return timeKernel(func() {
			for i := range f.bodies {
				fn(i)
			}
		}) / float64(len(f.bodies))
	}
	m.set("wire.decode_req_us", per(func(i int) { server.DecodeEvalRequest(f.bodies[i].body) }), "us")
	m.set("wire.unmarshal_ct_us", per(func(i int) { new(ckks.Ciphertext).UnmarshalBinary(reqs[i].Ct) }), "us")
	m.set("wire.marshal_ct_us", per(func(i int) { cts[i].MarshalBinary() }), "us")
}
