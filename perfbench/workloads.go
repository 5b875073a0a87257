package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"fbmpk"
	"fbmpk/internal/mmio"
	"fbmpk/internal/serve"
)

// latencyLimitMS is the p95 latency limit knee_qps is measured
// against, fixed once for every serving workload: well above
// serve-churn's p95 at low load (~90 ms, value updates), so the rate
// at which p95 crosses it is well defined on both workloads.
const latencyLimitMS = 250

// flightCap makes a traced run's daemon keep every request timeline.
const flightCap = 1 << 14

// The operating rung is measured in opBlocks blocks of blockReqs
// requests each, enough for a valid p95 per block.
const (
	opBlocks  = 5
	blockReqs = 200
)

// warmup is the untimed run at the operating point before measuring.
const warmup = 2 * time.Second

// replayN is how many recorded operation requests the traced run
// replays in process and over loopback.
const replayN = 24

// matSpec names a suite matrix at a scale.
type matSpec struct {
	name  string
	scale float64
}

// serveWorkload fixes a serving workload's inputs and load.
type serveWorkload struct {
	mats        []matSpec
	variants    int // value variants per matrix; updates cycle through them
	updateEvery int // every n-th request is a value update (0 = none)
	capacity    int // registry capacity (0 = unbounded)
	opRate      float64
	ladder      []float64 // offered rates, low to high
}

var serveWorkloads = map[string]serveWorkload{
	// One resident matrix, 4.5x L2: every request is a registry hit on
	// one key, so lookup and per-plan admission dominate.
	"serve-hot": {
		mats: []matSpec{{"cant", 0.2}}, variants: 1,
		opRate: 50, ladder: []float64{60, 75, 90, 105, 120, 135, 150, 170},
	},
	// Eight matrices of four structural classes, each near L2, over a
	// four-plan registry: misses, builds, evictions and value updates
	// share the registry with hits.
	"serve-churn": {
		mats: []matSpec{
			{"cant", 0.02}, {"cant", 0.035},
			{"G3_circuit", 0.008}, {"G3_circuit", 0.015},
			{"cage14", 0.004}, {"cage14", 0.0055},
			{"nlpkkt120", 0.001}, {"nlpkkt120", 0.0018},
		},
		variants: 2, updateEvery: 8, capacity: 4,
		opRate: 30, ladder: []float64{60, 75, 90, 105, 120, 135, 150, 170},
	},
}

// serveOps are the serving workloads' operations: MPK k=4, SSpMV of
// degree 4 and one symmetric Gauss-Seidel sweep.
var serveOps = []opSpec{{Name: "mpk", K: 4}, {Name: "sspmv", Coeffs: polyCoeffs(4)}, {Name: "solve", Sweeps: 1}}

// serveInputs generates the workload's matrices, their value variants,
// MatrixMarket bodies and reference results.
func serveInputs(w serveWorkload, seed uint64) ([]*slot, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	var out []*slot
	for _, m := range w.mats {
		a, err := fbmpk.GenerateSuiteMatrix(m.name, m.scale, seed)
		if err != nil {
			return nil, err
		}
		s := &slot{name: fmt.Sprintf("%s@%g", m.name, m.scale), vars: []*fbmpk.Matrix{a}}
		for len(s.vars) < w.variants {
			s.vars = append(s.vars, withValues(a, rng))
		}
		for _, v := range s.vars {
			var buf bytes.Buffer
			if err := mmio.Write(&buf, v); err != nil {
				return nil, err
			}
			s.bodies = append(s.bodies, buf.Bytes())
			refs, err := opRefs(v, serveOps)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", s.name, err)
			}
			s.refs = append(s.refs, refs)
		}
		out = append(out, s)
	}
	return out, nil
}

func opRefs(a *fbmpk.Matrix, ops []opSpec) ([][]float64, error) {
	var refs [][]float64
	for _, o := range ops {
		r, err := refOp(a, o)
		if err != nil {
			return nil, err
		}
		refs = append(refs, r)
	}
	return refs, nil
}

// planOptions are the options of every plan a workload times: one
// thread, in the ABMC order and colours the library's nproc-thread
// plans use, so a call does the same work as under the defaults, on
// one worker. At nproc threads the kernels' barriers sat on every
// timed call, and on a 2-vCPU host shared with other tenants a worker
// descheduled at a barrier stalls the whole call: in batches
// alternating both settings run by run, op_ms_p50 spread across seeds
// 0.12 (lib-large) and 0.14 (serve-hot) at nproc threads against 0.06
// and 0.03 at one thread. Concurrent requests still use every vCPU,
// and the layer probes measure kernel parallelism at nproc threads.
var planOptions = []fbmpk.Option{fbmpk.WithThreads(1), fbmpk.WithForceABMC(true)}

// daemonConfig is the serving workloads' daemon configuration.
func daemonConfig(capacity int, traced bool) serve.Config {
	cfg := serve.Config{RegistryCapacity: capacity,
		PlanOptions: append([]fbmpk.Option{fbmpk.WithBackend(fbmpk.BackendCSR)}, planOptions...)}
	if traced {
		cfg.FlightCapacity = flightCap
	}
	return cfg
}

// serveSetup starts a daemon, uploads every matrix and runs its first
// request against the cold registry, verified, reps times; it returns
// the median time and the last repetition's run, left running.
func serveSetup(slots []*slot, cfg serve.Config, conns, reps int) (*serveRun, float64, error) {
	var r *serveRun
	var times []float64
	for rep := 0; rep < reps; rep++ {
		if r != nil {
			r.d.stop()
		}
		d, err := startDaemon(cfg, conns)
		if err != nil {
			return nil, 0, err
		}
		r = &serveRun{d: d, slots: slots, ops: serveOps, check: &serveCheck{sum: map[string]string{}}}
		runtime.GC() // start every repetition from the same heap
		t0 := time.Now()
		for _, s := range slots {
			if err := r.upload(s); err != nil {
				d.stop()
				return nil, 0, err
			}
			if o := r.doOp(s, 0, true, true); !o.OK {
				d.stop()
				return nil, 0, fmt.Errorf("%s: first request: status %d, wrong %v", s.name, o.Status, o.Wrong)
			}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return r, median(times), nil
}

func runServe(o opts, rep *report) error {
	w := serveWorkloads[o.workload]
	threads := rep.cond.Host.Threads
	dur := time.Duration(o.seconds) * time.Second
	slots, err := serveInputs(w, o.seed)
	if err != nil {
		return err
	}
	for _, s := range slots {
		p, err := fbmpk.NewPlan(s.vars[0], daemonConfig(0, false).PlanOptions...)
		if err != nil {
			return err
		}
		rep.cond.Plans = append(rep.cond.Plans, describePlan(s.name, s.vars[0], p, rep.cond.Host.L2Bytes))
		p.Close()
	}
	reps := setupReps
	if o.trace {
		reps = 1
	}
	r, setup, err := serveSetup(slots, daemonConfig(w.capacity, o.trace), threads, reps)
	if err != nil {
		return err
	}
	defer r.d.stop()
	if err := r.calibrate(); err != nil {
		return err
	}
	maxRate := w.ladder[len(w.ladder)-1]
	seq := sequence(int(maxRate*dur.Seconds())+opBlocks*blockReqs+1, len(slots), w.updateEvery, o.seed)
	if o.trace {
		return traceServe(o, rep, r, w, seq, slots)
	}

	// Warm up at the operating rate: connections, workspaces and the
	// collector's pacing settle before anything is timed.
	rep.wrong += summarize(openLoop(w.opRate, warmup, time.Second, threads, r.issue(seq))).Wrong
	// The operating rung runs as opBlocks consecutive blocks, each on
	// its own stretch of the sequence, and reports the median over
	// blocks: a burst of interference from other tenants of the host
	// then moves one block, not the result.
	mem := startMem()
	blockDur := time.Duration((blockReqs + 0.5) / w.opRate * float64(time.Second))
	var p50s, p95s, rates, gnnz []float64
	for b := 0; b < opBlocks; b++ {
		win := openLoop(w.opRate, blockDur, 2*time.Second, threads, r.issue(seq[b*blockReqs:]))
		s := summarize(win)
		rep.attempted += s.Attempted
		rep.failed += s.Failed
		rep.wrong += s.Wrong
		p50s, p95s = append(p50s, capP95(s.P50)), append(p95s, capP95(s.P95))
		rates, gnnz = append(rates, s.OpsPerS), append(gnnz, s.SpMVNNZ/win.Elapsed.Seconds()/1e9)
		rep.note("operating rung %.0f req/s, block %d: %d requests (p95 valid %v), p50 %.2f ms, p95 %.2f ms, lateness p95 %.3f ms, backlog max %d",
			w.opRate, b, s.Attempted, tailValid(s.Attempted, 0.95), s.P50, s.P95, s.LatenessP95, win.BacklogMax)
		if s.LatenessP95 > latencyLimitMS || win.BacklogGrew {
			rep.cond.Flags = append(rep.cond.Flags, "load generator fell behind at the operating rung")
		}
	}
	memMiB := mem.peakMiB()

	var rungs []rung
	// The ladder gets the rest of the measured time.
	rungDur := (dur - opBlocks*blockDur) / time.Duration(len(w.ladder))
	if rungDur < time.Second/4 {
		rungDur = time.Second / 4
	}
	runRung := func(rate float64) rung {
		lw := openLoop(rate, rungDur, time.Second, threads, r.issue(seq))
		rep.wrong += summarize(lw).Wrong
		rg := toRung(rate, lw)
		rep.note("rung %.0f req/s: %d requests, p95 %.2f ms, errors %.3f, backlog grew %v",
			rate, rg.Samples, rg.P95, rg.ErrRatio, rg.BacklogGrew)
		return rg
	}
	for _, rate := range w.ladder {
		rg := runRung(rate)
		if !rg.passes(latencyLimitMS) {
			// A rung fails only when a second run of it fails too, so
			// one burst of interference on the host does not end the
			// ladder; the better run is kept.
			if again := runRung(rate); again.passes(latencyLimitMS) || again.P95 < rg.P95 {
				rg = again
			}
		}
		rungs = append(rungs, rg)
		if !rg.passes(latencyLimitMS) {
			break
		}
	}
	k, top := knee(rungs, latencyLimitMS)
	if top {
		rep.cond.Flags = append(rep.cond.Flags, "every rung met the limit: knee_qps is the ladder top")
	}
	rep.vals["setup_s"] = setup
	rep.vals["op_ms_p50"] = median(p50s)
	rep.note("op_ms_p95 %.3f ms (median over blocks of each block's p95; %d requests per block)", median(p95s), blockReqs)
	rep.vals["ops_per_s"] = median(rates)
	rep.vals["gnnz_per_s"] = median(gnnz)
	rep.note("knee_qps %.1f req/s (highest offered rate meeting the %d ms p95 limit)", k, latencyLimitMS)
	rep.vals["mem_mib"] = memMiB
	return nil
}

// traceServe is the traced serving run: the same request sequence at
// the operating rate untraced and then traced, an in-process and a
// loopback replay of recorded requests, and the layer probes.
func traceServe(o opts, rep *report, r *serveRun, w serveWorkload, seq []reqSpec, slots []*slot) error {
	threads := rep.cond.Host.Threads
	half := time.Duration(o.seconds) * time.Second / 2
	rep.wrong += summarize(openLoop(w.opRate, warmup, time.Second, threads, r.issue(seq))).Wrong
	before := r.d.srv.Registry().Stats()
	issue := r.issue(seq)
	wu := openLoop(w.opRate, half, 2*time.Second, threads, issue)
	// The traced pass records a span around every request as it runs;
	// each worker writes only its own requests' slots of ids.
	tr := newTracer()
	ids := make([]int64, len(seq))
	wt := openLoop(w.opRate, half, 2*time.Second, threads, func(i int) outcome {
		t0 := time.Now()
		oc := issue(i)
		ids[i] = tr.record("loadgen.http", 0, int64(i), t0, time.Now())
		return oc
	})
	after := r.d.srv.Registry().Stats()
	su, st := summarize(wu), summarize(wt)
	rep.attempted += su.Attempted + st.Attempted
	rep.failed += su.Failed + st.Failed
	rep.wrong += su.Wrong + st.Wrong

	fl, err := r.d.flight()
	if err != nil {
		return err
	}
	for i, oc := range wt.Outcomes {
		if e, ok := fl[oc.TraceID]; ok && oc.TraceID != "" {
			sr := tr.record("serve.request", ids[i], int64(i), e.Start, e.Start.Add(e.Total))
			tr.phases(sr, int64(i), e.Start, e.Phases)
		}
	}
	spans := tr.snapshot()
	v := rep.vals
	v["trace.overhead_ms"] = st.P50 - su.P50
	v["core.admission_wait_ms"] = meanPhaseMS(spans, "plan.admission", len(durationsMS(spans, "serve.request")))
	ops := float64(rep.attempted)
	lookups := float64(after.Hits-before.Hits) + float64(after.Misses-before.Misses) + float64(after.Coalesced-before.Coalesced)
	v["registry.hit_ratio"] = float64(after.Hits-before.Hits) / lookups
	v["registry.builds_per_kop"] = float64(after.Builds-before.Builds) / ops * 1000
	v["registry.evictions_per_kop"] = float64(after.Evictions-before.Evictions) / ops * 1000
	v["serve.shed_ratio"] = float64(su.Shed+st.Shed) / ops
	v["serve.deadline_ratio"] = float64(su.Deadline+st.Deadline) / ops
	v["loadgen.lateness_ms_p95"] = su.LatenessP95
	v["loadgen.backlog_max"] = float64(wu.BacklogMax)
	rep.note("untraced p50 %.3f ms, traced p50 %.3f ms (%d and %d requests)", su.P50, st.P50, su.Attempted, st.Attempted)

	if err := replayLayers(r, tr, seq, v); err != nil {
		return err
	}
	writeSpans(o, tr, rep)

	rng := rand.New(rand.NewSource(int64(o.seed) + 1))
	ps := probeSpec{threads: threads, k: 4, sweeps: 1}
	for _, s := range slots {
		pm := probeMatrix{name: s.name, a: s.vars[0], bodies: s.bodies}
		if len(s.vars) > 1 {
			pm.alt = s.vars[1]
		} else {
			pm.alt = withValues(s.vars[0], rng)
		}
		ps.mats = append(ps.mats, pm)
	}
	return probeLayers(ps, v)
}

// replayLayers replays recorded operation requests through the
// Handler in process and then over loopback, and derives the serve
// layer's handler, self and HTTP times.
func replayLayers(r *serveRun, tr *tracer, seq []reqSpec, v map[string]float64) error {
	mark := len(tr.snapshot())
	if err := r.handlerReplay(tr, seq, replayN); err != nil {
		return err
	}
	n := 0
	for _, q := range seq {
		if n == replayN {
			break
		}
		if q.Update {
			continue
		}
		t0 := time.Now()
		oc := r.doOp(r.slots[q.Slot], q.Op, false, false)
		if !oc.OK {
			return fmt.Errorf("loopback replay: status %d, wrong %v", oc.Status, oc.Wrong)
		}
		tr.record("replay.http", 0, int64(n), t0, time.Now())
		n++
	}
	spans := tr.snapshot()[mark:]
	hs, ls := durationsMS(spans, "serve.handler"), durationsMS(spans, "replay.http")
	if len(hs) != len(ls) {
		return fmt.Errorf("replays differ in length: %d in process, %d over loopback", len(hs), len(ls))
	}
	// The same requests ran both ways: pair them.
	diff := make([]float64, len(hs))
	for i := range hs {
		diff[i] = ls[i] - hs[i]
	}
	isLayer := func(name string) bool {
		return strings.HasPrefix(name, "registry.") || strings.HasPrefix(name, "plan.")
	}
	var self []float64
	for _, d := range selfTimes(spans, func(n string) bool { return n == "serve.handler" }, isLayer) {
		self = append(self, ms(d))
	}
	v["serve.handler_ms"] = median(hs)
	v["serve.self_ms"] = median(self)
	v["serve.http_ms"] = median(diff)
	return nil
}

// libServeOps are the lib-large operations the daemon has endpoints
// for, used to measure the serve layer on lib-large's matrices.
var libServeOps = []opSpec{{Name: "mpk", K: 8}, {Name: "sspmv", Coeffs: polyCoeffs(8)}, {Name: "solve", Sweeps: 4}}

func runLib(o opts, rep *report) error {
	mats, err := libInputs(o.seed)
	if err != nil {
		return err
	}
	threads := rep.cond.Host.Threads
	dur := time.Duration(o.seconds) * time.Second
	reps := setupReps
	if o.trace {
		reps = 1
	}
	setup, err := libSetup(mats, reps)
	defer func() {
		for _, m := range mats {
			if m.plan != nil {
				m.plan.Close()
			}
		}
	}()
	if err != nil {
		return err
	}
	for _, m := range mats {
		rep.cond.Plans = append(rep.cond.Plans, describePlan(m.name, m.a, m.plan, rep.cond.Host.L2Bytes))
	}
	// Warm up with one untimed cycle, so lazily built workspaces exist
	// before anything is timed.
	warm, _ := libLoop(mats, 0, nil)
	for _, s := range warm {
		if !s.ok {
			rep.wrong++
		}
	}
	if !o.trace {
		mem := startMem()
		ss, wall := libLoop(mats, dur, nil)
		s, gnnz := libSummary(ss, wall)
		rep.attempted += s.Attempted
		rep.failed += s.Failed
		rep.wrong += s.Wrong
		rep.note("op_ms_p95 %.3f ms (%d operations, valid %v)", capP95(s.P95), s.Attempted, tailValid(s.Attempted, 0.95))
		v := rep.vals
		v["setup_s"] = setup
		v["op_ms_p50"] = capP95(s.P50)
		v["ops_per_s"] = s.OpsPerS
		v["gnnz_per_s"] = gnnz
		v["mem_mib"] = mem.peakMiB()
		return nil
	}
	ssU, wallU := libLoop(mats, dur/2, nil)
	tr := newTracer()
	ssT, wallT := libLoop(mats, dur/2, tr)
	su, _ := libSummary(ssU, wallU)
	st, _ := libSummary(ssT, wallT)
	rep.attempted += su.Attempted + st.Attempted
	rep.failed += su.Failed + st.Failed
	rep.wrong += su.Wrong + st.Wrong
	spans := tr.snapshot()
	v := rep.vals
	v["trace.overhead_ms"] = st.P50 - su.P50
	v["core.admission_wait_ms"] = meanPhaseMS(spans, "plan.admission", len(ssT))
	rep.note("untraced p50 %.3f ms, traced p50 %.3f ms (%d and %d operations)", su.P50, st.P50, su.Attempted, st.Attempted)
	// The library path has no registry, daemon or load generator.
	for _, n := range []string{"registry.hit_ratio", "registry.builds_per_kop", "registry.evictions_per_kop",
		"serve.shed_ratio", "serve.deadline_ratio", "loadgen.lateness_ms_p95", "loadgen.backlog_max"} {
		v[n] = 0
	}
	for _, m := range mats {
		m.plan.Close()
		m.plan = nil
	}

	// The serve layer on lib-large's matrices, uploaded by generator spec.
	var slots []*slot
	for _, m := range mats {
		refs, err := opRefs(m.a, libServeOps)
		if err != nil {
			return err
		}
		slots = append(slots, &slot{name: m.name, vars: []*fbmpk.Matrix{m.a}, spec: m.spec,
			refs: [][][]float64{refs}})
	}
	d, err := startDaemon(daemonConfig(0, true), threads)
	if err != nil {
		return err
	}
	r := &serveRun{d: d, slots: slots, ops: libServeOps, check: &serveCheck{sum: map[string]string{}}}
	err = func() error {
		defer d.stop()
		for _, s := range slots {
			if err := r.upload(s); err != nil {
				return err
			}
		}
		if err := r.calibrate(); err != nil {
			return err
		}
		return replayLayers(r, tr, sequence(replayN, len(slots), 0, o.seed), v)
	}()
	if err != nil {
		return err
	}
	writeSpans(o, tr, rep)

	rng := rand.New(rand.NewSource(int64(o.seed) + 1))
	ps := probeSpec{threads: threads, k: 8, sweeps: 4}
	for _, m := range mats {
		ps.mats = append(ps.mats, probeMatrix{name: m.name, a: m.a, alt: withValues(m.a, rng)})
	}
	return probeLayers(ps, v)
}
