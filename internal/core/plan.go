package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	rtrace "runtime/trace"
	"sync"
	"sync/atomic"
	"time"

	"fbmpk/internal/check"
	"fbmpk/internal/events"
	"fbmpk/internal/graph"
	"fbmpk/internal/parallel"
	"fbmpk/internal/reorder"
	"fbmpk/internal/sparse"
)

// Engine selects the MPK computation pipeline.
type Engine int

const (
	// EngineStandard is the Algorithm 1 baseline: k plain SpMV sweeps.
	EngineStandard Engine = iota
	// EngineForwardBackward is the paper's FBMPK pipeline.
	EngineForwardBackward
	// EngineLevelBlocked is the level-blocked cache engine: BFS levels
	// grouped into cache-budget blocks, all k powers executed over each
	// resident block (see internal/core/levelblock.go).
	EngineLevelBlocked
	// EngineAuto arbitrates between EngineForwardBackward and
	// EngineLevelBlocked per matrix at build time (see AutotuneEngine);
	// the winner is reported by Plan.Engine and PlanStats.Tune.Engine.
	EngineAuto
)

func (e Engine) String() string {
	switch e {
	case EngineStandard:
		return "standard"
	case EngineForwardBackward:
		return "fbmpk"
	case EngineLevelBlocked:
		return "levelblock"
	case EngineAuto:
		return "auto"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// ParseEngine maps an engine name ("fbmpk", "standard", "levelblock",
// "auto") to its Engine; used by command-line flags.
func ParseEngine(s string) (Engine, error) {
	for _, e := range []Engine{EngineForwardBackward, EngineStandard, EngineLevelBlocked, EngineAuto} {
		if s == e.String() {
			return e, nil
		}
	}
	return EngineForwardBackward, fmt.Errorf("core: unknown engine %q (have fbmpk, standard, levelblock, auto)", s)
}

// Options configures a Plan.
type Options struct {
	Engine Engine
	// BtB enables the back-to-back interleaved vector layout
	// (Section III-C). Only meaningful for EngineForwardBackward.
	BtB bool
	// Threads > 1 enables the parallel engines with that many workers;
	// 0 or 1 runs serial. For EngineForwardBackward parallel execution
	// requires (and implies) ABMC reordering.
	Threads int
	// NumBlocks is the ABMC block count (0 = paper default 512).
	NumBlocks int
	// ColorOrder is the greedy coloring visit order for ABMC.
	ColorOrder graph.ColorOrder
	// ForceABMC applies ABMC reordering even for serial execution,
	// which Table III uses to isolate the reordering's locality effect.
	ForceABMC bool
	// PreRCM applies a reverse Cuthill-McKee pass before blocking, so
	// ABMC's contiguous blocks cover graph-local rows. Helps matrices
	// whose natural order scatters neighborhoods (no-op without ABMC).
	PreRCM bool
	// SelfCheck audits the plan's preprocessing products after
	// construction — CSR well-formedness of the execution-order matrix,
	// exact L+D+U reassembly, permutation bijectivity, and ABMC color
	// independence (see internal/check) — and fails NewPlan if any
	// invariant is violated. Debug aid: costs one extra pass over the
	// matrix, nothing per MPK call.
	SelfCheck bool
	// MaxInFlight bounds the executions a shared plan admits at once;
	// excess callers queue in FIFO order. 0 selects the default:
	// GOMAXPROCS for serial plans. Plans with a worker pool (Threads >
	// 1) always run one engine invocation at a time — the pool is a
	// single SPMD region — so MaxInFlight is clamped to 1 there and the
	// gate only provides fair queueing and close semantics.
	MaxInFlight int
	// Backend selects the storage format of the full-matrix SpMV/SpMM
	// kernels (standard-engine sweeps and the SpMM block path; FB
	// sweeps always run on the split CSR). The zero value BackendCSR
	// keeps the bitwise-stable baseline; BackendAuto runs the
	// autotuner at build time (see Autotune); BackendSELL/BackendBSR
	// force a format.
	Backend BackendKind
	// SELLChunk is the SELL-C-sigma chunk height (0 =
	// DefaultSELLChunk). Only meaningful for BackendSELL.
	SELLChunk int
	// SELLSigma is the SELL row-sorting window (0 = DefaultSELLSigma;
	// 1 disables sorting). Only meaningful for BackendSELL.
	SELLSigma int
	// BSRBlock is the BSR block size (0 = detect from the structure,
	// see DetectBSRBlock). Only meaningful for BackendBSR.
	BSRBlock int
	// LevelBlockBytes is the cache budget (bytes of matrix data) per
	// level block of the level-blocked engine (0 =
	// DefaultLevelBlockBytes). Only meaningful for EngineLevelBlocked
	// and EngineAuto.
	LevelBlockBytes int
	// TuneK is the power k the EngineAuto arbitration optimizes for
	// (0 = DefaultTuneK). Only meaningful for EngineAuto.
	TuneK int
	// tuned is a cached autotuner verdict injected by the registry via
	// WithTunedDecision: a BackendAuto plan replays it instead of
	// sampling. Excluded from fingerprints and canonicalization — it
	// is derived state, not configuration.
	tuned *TuneDecision
}

// DefaultOptions returns the configuration the paper evaluates as
// "FBMPK": forward-backward pipeline, BtB layout, parallel over ABMC
// colors with the default block count.
func DefaultOptions(threads int) Options {
	return Options{
		Engine:  EngineForwardBackward,
		BtB:     true,
		Threads: threads,
	}
}

// Plan is a prepared MPK/SSpMV executor for one matrix. Building a
// Plan performs the one-off preprocessing the paper amortizes across
// MPK invocations (Section V-F): the L+D+U split, and for parallel
// FBMPK the ABMC reorder.
//
// After construction the structural products of preprocessing — the
// permutation, the ABMC schedule, the CSR/split/backend index arrays —
// are never written again. The value-bearing containers live in an
// epoch (see planEpoch) that UpdateValues can atomically replace with
// one sharing every structure array; executions load the epoch exactly
// once at admission and run to completion on it, so in-flight calls
// are bitwise-unaffected by a concurrent update. Per-call scratch
// lives in pooled workspaces, so a single Plan is safe for concurrent
// use by any number of goroutines; executions are admitted through a
// fair FIFO gate (see Options.MaxInFlight). Close drains in-flight
// executions and fails later calls with ErrClosed.
type Plan struct {
	opt  Options
	eng  Engine // resolved engine (EngineAuto arbitrated at build)
	n    int
	ord  *reorder.ABMCResult // non-nil when ABMC was applied
	perm reorder.Perm        // execution-order permutation (ABMC or level), nil = identity
	lvl  *levelSchedule      // non-nil for the level-blocked engine
	pool *parallel.Pool      // non-nil when Threads > 1
	fb   *FBParallel         // non-nil for the FB engine
	sym  *SymGSParallel      // parallel smoother (pool + ABMC plans)

	// state is the current value epoch. Readers load it once per
	// execution (in exec, after gate admission); UpdateValues publishes
	// a successor under updateMu. Never nil after NewPlan returns.
	state atomic.Pointer[planEpoch]

	// srcRowPtr/srcColIdx alias the structure arrays of the ORIGINAL
	// (unpermuted) input matrix — the reference UpdateValues compares a
	// candidate's structure against. Zero extra storage: they share the
	// caller's arrays.
	srcRowPtr []int64
	srcColIdx []int32

	// updateMu serializes UpdateValues calls; valMap (built lazily
	// under it, only for reordered plans) maps each execution-order
	// value slot to its source index in the original value array.
	updateMu    sync.Mutex
	valMap      []int64
	updates     atomic.Uint64
	updateNanos atomic.Int64

	// Nonzero counts of the execution-order matrix and its split, the
	// denominators of the traffic accounting (nnzD counts explicitly
	// stored diagonal entries: nnzA - nnzL - nnzU). Structure-only, so
	// constant across epochs.
	nnzA, nnzL, nnzU, nnzD uint64

	gate     *parallel.Gate
	wsPool   sync.Pool
	metrics  planMetrics
	rec      atomic.Pointer[events.Recorder] // nil = tracing disabled
	closeOne sync.Once
	closed   chan struct{} // closed once teardown completes

	stats PlanStats
}

// planEpoch bundles the value-bearing containers of one matrix-value
// generation: the execution-order matrix, the kernel backend over it,
// and the L+D+U split (nil for the standard engine). Successive epochs
// share every structure array (RowPtr, ColIdx, chunk/block maps, the
// permutation) and differ only in value payloads, so an epoch swap is
// O(nnz) allocation, never a re-preprocess.
type planEpoch struct {
	seq uint64
	a   *sparse.CSR        // matrix in execution order (permuted if ABMC)
	be  execBackend        // full-matrix kernel backend over a
	tri *sparse.Triangular // split of a (FB engines)
}

// PlanStats reports the one-off preprocessing cost of building a plan
// — the quantity Fig 11 of the paper normalizes to SpMV invocations —
// broken down by stage. For parallel plans (Threads > 1) the O(nnz)
// stages (block-graph discovery, permutation apply, L+D+U split) run
// row-parallel on the plan's worker pool; RCM and the greedy coloring
// stay serial, the first because its BFS is inherently sequential and
// the second because a deterministic visit order is what keeps cached
// and fresh plans bitwise identical.
type PlanStats struct {
	BuildTime   time.Duration // total NewPlan wall time
	ReorderTime time.Duration // ABMC total: RCM + graph + color + apply
	RCMTime     time.Duration // reverse Cuthill-McKee pre-pass (serial)
	GraphTime   time.Duration // block-graph discovery (parallel)
	ColorTime   time.Duration // greedy coloring (serial by design)
	PermTime    time.Duration // symmetric permutation apply (parallel)
	SplitTime   time.Duration // A = L + D + U (parallel)
	NumColors   int           // 0 when no ABMC was applied
	NumBlocks   int           // ABMC blocks, or level blocks for the level-blocked engine
	NumLevels   int           // BFS levels of the level-blocked schedule (0 otherwise)
	// ParallelPrep reports whether preprocessing ran on the worker
	// pool (Threads > 1) rather than the serial path.
	ParallelPrep bool
	// Backend is the storage format the plan's full-matrix kernels
	// execute on ("csr", "sell", "bsr").
	Backend string
	// TuneTime is the backend resolution cost: autotuner sampling (if
	// any) plus format conversion.
	TuneTime time.Duration
	// Tune is the autotuner's verdict, nil unless the plan was built
	// with BackendAuto. FromCache marks a verdict replayed from the
	// registry; Samples counts the micro-benchmark invocations paid.
	Tune *TuneDecision
	// Updates counts completed UpdateValues epoch swaps; UpdateTime is
	// their cumulative wall time. An update never re-tunes, re-orders,
	// or re-splits, so BuildTime and TuneTime stay the one-off costs of
	// NewPlan.
	Updates    uint64
	UpdateTime time.Duration
}

// NewPlan prepares an executor for the square matrix a. The input
// matrix is not modified; reordering works on a copy. With no options
// the plan runs the paper's FBMPK configuration serially
// (DefaultOptions(0)); pass an Options value (which applies wholesale)
// or individual With* options to override.
func NewPlan(a *sparse.CSR, opts ...Option) (*Plan, error) {
	opt := BuildOptions(opts...)
	if a == nil {
		return nil, fmt.Errorf("core: NewPlan: nil matrix: %w", ErrInvalidMatrix)
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("core: NewPlan: %w: %v", ErrInvalidMatrix, err)
	}
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("core: NewPlan: %w", sparse.ErrNotSquare)
	}
	buildStart := time.Now()
	p := &Plan{
		opt: opt, n: a.Rows, closed: make(chan struct{}),
		srcRowPtr: a.RowPtr, srcColIdx: a.ColIdx,
	}
	ea := a // matrix in execution order (replaced if a reorder applies)

	// EngineAuto resolves to a concrete engine before any preprocessing:
	// the arbitration (or a cached verdict injected via
	// WithTunedDecision) decides which reorder, split, and kernel the
	// rest of the build prepares. opt.Engine stays as spelled so
	// fingerprints and replays see the configuration, not the verdict.
	eng := opt.Engine
	var engDec *EngineDecision
	var engElapsed time.Duration
	if opt.Engine == EngineAuto {
		engStart := time.Now()
		tk := opt.TuneK
		if tk <= 0 {
			tk = DefaultTuneK
		}
		tth := opt.Threads
		if tth <= 1 {
			tth = 0
		}
		if opt.tuned != nil && opt.tuned.Engine != nil && opt.tuned.Engine.K == tk && opt.tuned.Engine.Threads == tth {
			d := *opt.tuned.Engine
			d.FromCache = true
			d.Samples = 0
			engDec = &d
		} else {
			d, err := AutotuneEngine(a, tk, opt.LevelBlockBytes, opt.Threads)
			if err != nil {
				return nil, err
			}
			engDec = d
		}
		eng = engDec.Engine
		engElapsed = time.Since(engStart)
	}
	p.eng = eng
	parallelRun := opt.Threads > 1
	needABMC := (opt.ForceABMC && eng != EngineLevelBlocked) ||
		(parallelRun && eng == EngineForwardBackward)

	// The worker pool is created before preprocessing so the O(nnz)
	// build stages (block graph, permutation apply, split) run on it;
	// after construction the same pool serves the parallel engines.
	var runner sparse.Runner
	if parallelRun {
		p.pool = parallel.NewPoolNamed(opt.Threads, "plan")
		runner = p.pool
		p.stats.ParallelPrep = true
	}
	fail := func(err error) (*Plan, error) {
		if p.pool != nil {
			p.pool.Close()
		}
		return nil, err
	}

	if needABMC {
		start := time.Now()
		base := a
		var pre reorder.Perm
		if opt.PreRCM {
			rcm, err := reorder.RCM(a)
			if err != nil {
				return fail(err)
			}
			rm, err := rcm.ApplySymPool(a, runner)
			if err != nil {
				return fail(err)
			}
			base, pre = rm, rcm
			p.stats.RCMTime = time.Since(start)
		}
		ord, err := reorder.ABMC(base, reorder.ABMCOptions{
			NumBlocks:  opt.NumBlocks,
			ColorOrder: opt.ColorOrder,
			Pool:       runner,
		})
		if err != nil {
			return fail(err)
		}
		permStart := time.Now()
		b, err := ord.Perm.ApplySymPool(base, runner)
		if err != nil {
			return fail(err)
		}
		p.stats.PermTime = time.Since(permStart)
		if pre != nil {
			// Fold the RCM pre-pass into the ABMC permutation so the
			// rest of the plan sees a single combined ordering.
			ord.Perm = ord.Perm.Compose(pre)
		}
		p.stats.ReorderTime = time.Since(start)
		p.stats.GraphTime = ord.GraphTime
		p.stats.ColorTime = ord.ColorTime
		p.stats.NumColors = ord.NumColors
		p.stats.NumBlocks = ord.NumBlocks()
		p.ord = ord
		p.perm = ord.Perm
		ea = b
	}
	if eng == EngineLevelBlocked {
		// Level-blocked preprocessing: BFS levels, the level-contiguous
		// permutation, and the cache-budget block grouping.
		start := time.Now()
		ls, err := newLevelSchedule(a, opt.LevelBlockBytes)
		if err != nil {
			return fail(err)
		}
		permStart := time.Now()
		b, err := ls.perm.ApplySymPool(a, runner)
		if err != nil {
			return fail(err)
		}
		p.stats.PermTime = time.Since(permStart)
		p.stats.ReorderTime = time.Since(start)
		p.stats.NumBlocks = ls.numBlocks()
		p.stats.NumLevels = ls.lp.NumLevels()
		p.lvl = ls
		p.perm = ls.perm
		ea = b
	}
	var tri *sparse.Triangular
	if eng == EngineForwardBackward {
		start := time.Now()
		t, err := sparse.SplitPool(ea, runner)
		if err != nil {
			return fail(err)
		}
		p.stats.SplitTime = time.Since(start)
		tri = t
	}
	p.nnzA = uint64(len(ea.Val))
	if tri != nil {
		p.nnzL = uint64(len(tri.L.Val))
		p.nnzU = uint64(len(tri.U.Val))
		p.nnzD = p.nnzA - p.nnzL - p.nnzU
	}
	// The backend resolves after reordering so the autotuner samples
	// (and the format conversion covers) the execution-order matrix.
	be, err := p.initBackend(opt, ea)
	if err != nil {
		return fail(err)
	}
	if engDec != nil {
		// Attach the engine arbitration verdict to the tuning report.
		// initBackend fills stats.Tune only for BackendAuto; an
		// EngineAuto plan on a fixed backend gets a fresh record here so
		// the registry can persist and replay the verdict either way.
		if p.stats.Tune == nil {
			p.stats.Tune = &TuneDecision{Backend: opt.Backend, FromCache: engDec.FromCache}
		} else {
			p.stats.Tune.FromCache = p.stats.Tune.FromCache && engDec.FromCache
		}
		p.stats.Tune.Engine = engDec
		p.stats.Tune.Samples += engDec.Samples
		p.stats.TuneTime += engElapsed
	}
	if eng == EngineForwardBackward {
		fb, err := NewFBParallel(tri, p.ord, p.pool)
		if err != nil {
			return fail(err)
		}
		p.fb = fb
	}
	if p.pool != nil && tri != nil && p.ord != nil {
		// Build the parallel smoother eagerly: a lazily built one would be
		// mutable state racing under concurrent SymGS calls.
		sym, err := NewSymGSParallel(tri, p.ord, p.pool)
		if err != nil {
			return fail(err)
		}
		p.sym = sym
	}
	p.state.Store(&planEpoch{a: ea, be: be, tri: tri})
	capacity := opt.MaxInFlight
	if p.pool != nil {
		capacity = 1
	} else if capacity <= 0 {
		capacity = runtime.GOMAXPROCS(0)
	}
	p.gate = parallel.NewGate(capacity)
	if opt.SelfCheck {
		if err := p.audit(ea, tri); err != nil {
			p.Close()
			return nil, err
		}
	}
	p.stats.BuildTime = time.Since(buildStart)
	return p, nil
}

// audit runs the internal/check invariant validators over the plan's
// preprocessing products.
func (p *Plan) audit(a *sparse.CSR, tri *sparse.Triangular) error {
	if err := check.CSR(a); err != nil {
		return err
	}
	if tri != nil {
		if err := check.Split(a, tri); err != nil {
			return err
		}
	}
	if p.perm != nil {
		if err := check.Perm(p.perm); err != nil {
			return err
		}
	}
	if p.ord != nil {
		if err := check.ABMC(p.ord, a); err != nil {
			return err
		}
	}
	if p.lvl != nil {
		if err := p.lvl.validatePermuted(a); err != nil {
			return err
		}
	}
	return nil
}

// Close retires the plan: later calls fail with ErrClosed, executions
// already admitted (and callers already queued at the gate) run to
// completion, and once the plan has drained the worker pool is
// released. Safe to call concurrently with executions and with other
// Close calls; idempotent, and every Close call — not just the first —
// returns only after teardown has completed, so a caller returning
// from Close may rely on the worker pool being gone. The registry
// leans on these semantics for safe deferred eviction: a plan may be
// closed by LRU eviction, by Registry.Close, and by a defensive user
// Close without double-teardown.
func (p *Plan) Close() {
	p.closeOne.Do(func() {
		// Drain first (gate.Close blocks until in-flight executions
		// leave), then stop the pool the executions were running on.
		p.gate.Close()
		if p.pool != nil {
			p.pool.Close()
		}
		close(p.closed)
	})
	<-p.closed
}

// Closed reports whether Close has completed. A false return is
// advisory only — a concurrent Close may be in progress — but a true
// return is final: every later execution fails with ErrClosed.
func (p *Plan) Closed() bool {
	select {
	case <-p.closed:
		return true
	default:
		return false
	}
}

// N returns the matrix dimension.
func (p *Plan) N() int { return p.n }

// Stats returns the preprocessing cost breakdown of plan construction
// plus the running UpdateValues counters.
func (p *Plan) Stats() PlanStats {
	s := p.stats
	s.Updates = p.updates.Load()
	s.UpdateTime = time.Duration(p.updateNanos.Load())
	return s
}

// Metrics returns a point-in-time snapshot of the plan's execution
// counters; see PlanMetrics. Safe to call at any time, including
// concurrently with executions.
func (p *Plan) Metrics() PlanMetrics {
	m := p.metrics.snapshot(p.nnzA)
	m.Build = buildBreakdown(p.stats)
	m.Backend = p.stats.Backend
	return m
}

// StartTrace attaches an event recorder: subsequent executions record
// call, sweep, compute, and barrier spans into it until StopTrace.
// Executions already running keep their previous recorder (possibly
// none). Safe to call at any time; the swap is atomic. The recorder
// should be sized with at least as many worker lanes as the plan has
// threads, or worker spans are silently dropped.
func (p *Plan) StartTrace(r *events.Recorder) error {
	if r == nil {
		return fmt.Errorf("core: StartTrace: nil recorder (use StopTrace to detach)")
	}
	p.rec.Store(r)
	return nil
}

// StopTrace detaches the current recorder and returns it (nil when
// none was attached). Executions already in flight finish recording
// into the detached recorder; capture it after they drain for an exact
// trace.
func (p *Plan) StopTrace() *events.Recorder { return p.rec.Swap(nil) }

// TraceRecorder returns the currently attached recorder, nil when
// tracing is off.
func (p *Plan) TraceRecorder() *events.Recorder { return p.rec.Load() }

// Workers returns the plan's worker-pool size (0 for serial plans) —
// the number of worker lanes a trace recorder for this plan needs.
func (p *Plan) Workers() int {
	if p.pool == nil {
		return 0
	}
	return p.opt.Threads
}

// Ordering returns the ABMC result when reordering was applied, else
// nil. The matrix held by the plan is in this ordering.
func (p *Plan) Ordering() *reorder.ABMCResult { return p.ord }

// Engine returns the engine the plan executes with. For plans built
// with EngineAuto this is the arbitration winner
// (EngineForwardBackward or EngineLevelBlocked); otherwise it echoes
// Options.Engine.
func (p *Plan) Engine() Engine { return p.eng }

// Matrix returns the current epoch's matrix in execution order
// (permuted when ABMC was applied). Callers must not modify it.
func (p *Plan) Matrix() *sparse.CSR { return p.state.Load().a }

// exec is the admission wrapper every entry point runs through: it
// takes a gate slot (FIFO-fair, failing with ErrClosed after Close and
// with ctx.Err() if the context fires while queued), pins the current
// value epoch (loaded exactly once, so a concurrent UpdateValues never
// mixes generations within one execution), bridges ctx to the kernel
// cancel flag, loans the caller a pooled workspace, and settles the
// metrics. fn returns the analytic work it performed, counted only on
// success.
func (p *Plan) exec(ctx context.Context, op opKind, fn func(ws *workspace, env *runEnv, ep *planEpoch) (work, error)) error {
	// A request timeline in ctx gets the per-phase attribution of this
	// execution; nil (the common library case) keeps every record below
	// a no-op, so the detached cost is one context lookup.
	tl := events.TimelineFromContext(ctx)
	var gateStart time.Time
	if tl != nil {
		gateStart = time.Now()
	}
	if err := p.gate.Enter(ctx); err != nil {
		if errors.Is(err, parallel.ErrClosed) {
			p.metrics.rejected.Add(1)
			return fmt.Errorf("core: %s: %w", op, ErrClosed)
		}
		p.metrics.canceled.Add(1)
		return fmt.Errorf("core: %s: %w", op, err)
	}
	defer p.gate.Leave()
	p.metrics.inflight.Add(1)
	defer p.metrics.inflight.Add(-1)
	ep := p.state.Load()
	if tl != nil {
		now := time.Now()
		tl.Phase("plan.admission", gateStart, now)
		tl.Mark("plan.epoch", now, int64(ep.seq))
	}

	env := &runEnv{met: &p.metrics, lane: -1}
	if rec := p.rec.Load(); rec != nil {
		env.rec = rec
		env.lane, env.seq = rec.AcquireLane()
		defer rec.ReleaseLane(env.lane)
	}
	if ctx != nil && ctx.Done() != nil {
		// A context already done fails deterministically before any
		// kernel work; one set mid-run is observed at barriers instead.
		if err := ctx.Err(); err != nil {
			p.metrics.canceled.Add(1)
			return fmt.Errorf("core: %s canceled: %w", op, err)
		}
		flag := &cancelFlag{}
		stop := context.AfterFunc(ctx, flag.set)
		defer stop()
		env.flag = flag
	}
	ws := p.acquire()
	var region *rtrace.Region
	if rtrace.IsEnabled() {
		rctx := ctx
		if rctx == nil {
			rctx = context.Background()
		}
		region = rtrace.StartRegion(rctx, opRegionNames[op])
	}
	start := time.Now()
	wk, err := fn(ws, env, ep)
	end := time.Now()
	elapsed := end.Sub(start)
	if region != nil {
		region.End()
	}
	if env.rec != nil {
		env.rec.SpanTagged(env.lane, events.KindCall, opNames[op], -1, env.seq, start, end, tl.TraceID())
	}
	tl.Phase("plan.execute", start, end)
	p.metrics.callNanos.Add(elapsed.Nanoseconds())
	p.release(ws)
	if err != nil {
		if errors.Is(err, errCanceledRun) {
			p.metrics.canceled.Add(1)
			cause := context.Canceled
			if ctx != nil && ctx.Err() != nil {
				cause = ctx.Err()
			}
			return fmt.Errorf("core: %s canceled: %w", op, cause)
		}
		return err
	}
	p.metrics.calls[op].Add(1)
	p.metrics.hist[op].observe(elapsed)
	p.metrics.add(wk)
	return nil
}

// fbNnz is the matrix traffic of a k-power forward-backward pipeline
// pass: the head reads U once, each of the ceil(k/2) forward sweeps
// reads L and D, each of the floor(k/2) backward sweeps reads U — the
// (k+1)/2 "reads of A" result of Section III-B, independent of the
// number of right-hand sides sharing the pass.
func (p *Plan) fbNnz(k int) uint64 {
	fwd := uint64(k+1) / 2
	bwd := uint64(k) / 2
	return p.nnzU + fwd*(p.nnzL+p.nnzD) + bwd*p.nnzU
}

// workPowers is the analytic work of computing k powers for m vectors
// with the plan's engine.
func (p *Plan) workPowers(k, m int) work {
	wk := work{sweeps: uint64(k), spmvs: uint64(k) * uint64(m)}
	switch p.eng {
	case EngineForwardBackward:
		wk.nnz = p.fbNnz(k)
	case EngineLevelBlocked:
		// The level-blocked kernel runs one plain SpMV per (power,
		// vector): 1 read of A per SpMV through the cache hierarchy. Its
		// saving is DRAM residency, accounted by cachesim, not here.
		wk.nnz = uint64(k) * uint64(m) * p.nnzA
	default:
		wk.nnz = uint64(k) * p.nnzA
	}
	return wk
}

// runLevelBlocked executes the level-blocked schedule over the current
// epoch's permuted matrix with k+1 pooled live iterates. The returned
// xk aliases workspace scratch — callers unpermute (copying) before it
// escapes. The kernel reads the epoch's raw CSR (not the backend): the
// skewed step ranges move every pass, which the chunk/block-aligned
// SELL and BSR range kernels cannot serve.
func (p *Plan) runLevelBlocked(ws *workspace, env *runEnv, ep *planEpoch, in []float64, k int, hook IterateFunc) ([]float64, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: power k=%d: %w", k, ErrBadPower)
	}
	xs := ws.lvl(p.n, k)
	copy(xs[0], in)
	if err := levelBlockedMPK(env, ep.a, p.lvl, xs, k, p.pool, hook); err != nil {
		return nil, err
	}
	return xs[k], nil
}

// powers runs k powers of the execution-order vector in through the
// plan's engine, hook observing every iterate, and returns A^k in (it
// may alias workspace scratch — callers unpermute or copy before it
// escapes).
func (p *Plan) powers(ws *workspace, env *runEnv, ep *planEpoch, in []float64, k int, hook IterateFunc) ([]float64, error) {
	switch p.eng {
	case EngineLevelBlocked:
		return p.runLevelBlocked(ws, env, ep, in, k, hook)
	case EngineStandard:
		if p.pool != nil {
			return standardMPKParallel(env, ep.be, in, k, p.pool, hook)
		}
		return standardMPK(env, ep.be, in, k, hook)
	default:
		xk, _, err := p.fb.runVec(ep.tri, ws.fb(p.n, 1, p.opt.BtB), env, in, k, p.opt.BtB, nil, hook)
		return xk, err
	}
}

// comboHook returns the SSpMV accumulator seeded with coeffs[0] * x0
// and the iterate hook that adds each later power's term to it.
func comboHook(coeffs, x0 []float64) ([]float64, IterateFunc) {
	combo := make([]float64, len(x0))
	for i := range combo {
		combo[i] = coeffs[0] * x0[i]
	}
	return combo, func(power int, x []float64) {
		if c := coeffs[power]; c != 0 {
			sparse.AXPY(c, x, combo)
		}
	}
}

// MPK computes A^k x0 and returns it in the ORIGINAL row ordering,
// regardless of internal reordering.
func (p *Plan) MPK(x0 []float64, k int) ([]float64, error) {
	return p.MPKCtx(context.Background(), x0, k)
}

// MPKCtx is MPK honoring ctx: cancellation is observed while queued at
// the admission gate and, once running, at every color-barrier
// boundary of the pipeline, returning an error wrapping ctx.Err().
func (p *Plan) MPKCtx(ctx context.Context, x0 []float64, k int) ([]float64, error) {
	var xk []float64
	err := p.exec(ctx, opMPK, func(ws *workspace, env *runEnv, ep *planEpoch) (wk work, err error) {
		xk, _, wk, err = p.run(ws, env, ep, x0, k, nil)
		return wk, err
	})
	if err != nil {
		return nil, err
	}
	return xk, nil
}

// SymGS applies sweeps symmetric Gauss-Seidel iterations for A x = b,
// updating x in place (both in the original row ordering). The
// smoother shares the plan's L+D+U split and, for parallel plans, its
// ABMC coloring — the SYMGS connection of Sections III-A and VII.
// Requires a forward-backward plan (the split is not built for the
// standard engine). Rows with zero diagonal are skipped.
func (p *Plan) SymGS(b, x []float64, sweeps int) error {
	return p.SymGSCtx(context.Background(), b, x, sweeps)
}

// SymGSCtx is SymGS honoring ctx. On cancellation the contents of x
// are unspecified.
func (p *Plan) SymGSCtx(ctx context.Context, b, x []float64, sweeps int) error {
	if p.eng != EngineForwardBackward {
		return fmt.Errorf("core: SymGS requires the forward-backward engine: %w", ErrNoSplit)
	}
	if len(b) != p.n || len(x) != p.n {
		return fmt.Errorf("core: SymGS (n=%d, b=%d, x=%d): %w", p.n, len(b), len(x), ErrDimension)
	}
	return p.exec(ctx, opSymGS, func(ws *workspace, env *runEnv, ep *planEpoch) (work, error) {
		pb, pxv := b, x
		if p.perm != nil {
			pb = ws.vec(p.n)
			pxv = ws.vec2(p.n)
			p.perm.ApplyVec(b, pb)
			p.perm.ApplyVec(x, pxv)
		}
		var err error
		if p.sym != nil {
			err = p.sym.apply(env, ep.tri, pb, pxv, sweeps)
		} else {
			err = symGSSerial(env, ep.tri, pb, pxv, sweeps)
		}
		if err != nil {
			return work{}, err
		}
		if p.perm != nil {
			p.perm.UnapplyVec(pxv, x)
		}
		// One symmetric sweep streams L, D, U twice (forward + backward
		// half-sweeps): 2 nnzA per sweep, 2 SpMV-equivalents.
		s := uint64(sweeps)
		return work{sweeps: 2 * s, spmvs: 2 * s, nnz: 2 * s * p.nnzA}, nil
	})
}

// MPKAll computes the full Krylov-style sequence x0, Ax0, ..., A^k x0
// and returns k+1 fresh vectors in the original row ordering — the
// building block of s-step Krylov methods (the related-work use case
// of Section VI). Memory: allocates (k+1) n-vectors.
func (p *Plan) MPKAll(x0 []float64, k int) ([][]float64, error) {
	return p.MPKAllCtx(context.Background(), x0, k)
}

// MPKAllCtx is MPKAll honoring ctx.
func (p *Plan) MPKAllCtx(ctx context.Context, x0 []float64, k int) ([][]float64, error) {
	if len(x0) != p.n {
		return nil, fmt.Errorf("core: x0 length %d != n %d: %w", len(x0), p.n, ErrDimension)
	}
	if k < 1 {
		return nil, fmt.Errorf("core: power k=%d: %w", k, ErrBadPower)
	}
	var out [][]float64
	err := p.exec(ctx, opMPKAll, func(ws *workspace, env *runEnv, ep *planEpoch) (work, error) {
		out = make([][]float64, k+1)
		out[0] = sparse.CopyVec(x0)
		hook := func(power int, x []float64) {
			v := make([]float64, p.n)
			if p.perm != nil {
				p.perm.UnapplyVec(x, v)
			} else {
				copy(v, x)
			}
			out[power] = v
		}
		in := x0
		if p.perm != nil {
			px := ws.vec(p.n)
			p.perm.ApplyVec(x0, px)
			in = px
		}
		if _, err := p.powers(ws, env, ep, in, k, hook); err != nil {
			return work{}, err
		}
		return p.workPowers(k, 1), nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MPKMulti computes A^k x_j for a block of m start vectors with one
// batched pipeline pass, returning m fresh vectors in the original row
// ordering. For forward-backward plans this is the batched FBMPK
// engine: every sweep of L/U advances all m vectors, so each matrix
// read serves 2*m SpMV applications (asymptotically 1/(2m) reads of A
// per SpMV, versus 1 for plain MPK and 1/2 for single-vector FBMPK).
// Standard-engine plans run the SpMM block path on the plan's backend
// (one matrix pass per power serves the whole block), which amortizes
// across vectors but not across powers.
func (p *Plan) MPKMulti(xs [][]float64, k int) ([][]float64, error) {
	return p.MPKMultiCtx(context.Background(), xs, k)
}

// MPKMultiCtx is MPKMulti honoring ctx.
func (p *Plan) MPKMultiCtx(ctx context.Context, xs [][]float64, k int) ([][]float64, error) {
	var xks [][]float64
	err := p.exec(ctx, opMPKMulti, func(ws *workspace, env *runEnv, ep *planEpoch) (wk work, err error) {
		xks, _, wk, err = p.runMulti(ws, env, ep, xs, k, nil)
		return wk, err
	})
	if err != nil {
		return nil, err
	}
	return xks, nil
}

// SSpMVMulti computes, for every start vector x_j in the block,
// combo_j = sum_{i=0..len(coeffs)-1} coeffs[i] * A^i * x_j in one
// batched pipeline pass, returning m fresh vectors in the original row
// ordering. The same coefficients apply to every vector (the block
// polynomial-filter case of s-step and block Krylov methods).
func (p *Plan) SSpMVMulti(coeffs []float64, xs [][]float64) ([][]float64, error) {
	return p.SSpMVMultiCtx(context.Background(), coeffs, xs)
}

// SSpMVMultiCtx is SSpMVMulti honoring ctx.
func (p *Plan) SSpMVMultiCtx(ctx context.Context, coeffs []float64, xs [][]float64) ([][]float64, error) {
	if len(coeffs) == 0 {
		return nil, fmt.Errorf("core: SSpMVMulti needs at least one coefficient: %w", ErrBadCoeffs)
	}
	if len(coeffs) == 1 {
		// Degree-0 polynomial: y_j = c0 * x_j is pure scaling, which is
		// independent of row order — no matrix pass and no permutation
		// round-trip. (The plan's matrix is in execution order; routing
		// this through a matrix kernel with original-order vectors would
		// mix the two numberings.)
		if len(xs) == 0 {
			return nil, fmt.Errorf("core: SSpMVMulti: %w", ErrEmptyBlock)
		}
		out := make([][]float64, len(xs))
		for j, x := range xs {
			if len(x) != p.n {
				return nil, fmt.Errorf("core: vector %d length %d != n %d: %w", j, len(x), p.n, ErrDimension)
			}
			y := make([]float64, p.n)
			for i := range y {
				y[i] = coeffs[0] * x[i]
			}
			out[j] = y
		}
		return out, nil
	}
	var combos [][]float64
	err := p.exec(ctx, opSSpMVMulti, func(ws *workspace, env *runEnv, ep *planEpoch) (wk work, err error) {
		_, combos, wk, err = p.runMulti(ws, env, ep, xs, len(coeffs)-1, coeffs)
		return wk, err
	})
	if err != nil {
		return nil, err
	}
	return combos, nil
}

// runMulti dispatches a batched run to the engine the plan selected,
// handling the ABMC permutation on both sides.
func (p *Plan) runMulti(ws *workspace, env *runEnv, ep *planEpoch, xs [][]float64, k int, coeffs []float64) (xks, combos [][]float64, wk work, err error) {
	var m int
	if _, m, err = checkMulti(p.n, xs, k, coeffs); err != nil {
		return nil, nil, work{}, err
	}
	in := xs
	if p.perm != nil {
		in = make([][]float64, len(xs))
		for j, x := range xs {
			px := make([]float64, p.n)
			p.perm.ApplyVec(x, px)
			in[j] = px
		}
	}
	wk = p.workPowers(k, m)
	switch {
	case p.eng == EngineLevelBlocked:
		// One schedule pass per vector: the level-blocked pipeline keeps
		// k+1 iterates live per vector, so the batch runs sequentially
		// over vectors rather than widening the working set m-fold.
		xks = make([][]float64, len(in))
		if coeffs != nil {
			combos = make([][]float64, len(in))
		}
		for j, x := range in {
			var hook IterateFunc
			if coeffs != nil {
				combos[j], hook = comboHook(coeffs, x)
			}
			var xk []float64
			xk, err = p.runLevelBlocked(ws, env, ep, x, k, hook)
			if err != nil {
				break
			}
			xks[j] = sparse.CopyVec(xk)
		}
	case p.eng == EngineStandard:
		xks, err = standardMPKBatch(env, ep.be, in, k)
		if err == nil && coeffs != nil {
			// The combo needs the intermediate powers the SpMM sweep does
			// not retain, so the standard path re-runs per vector: m extra
			// k-power sweeps of matrix traffic.
			wk.sweeps += uint64(k) * uint64(m)
			wk.nnz += uint64(k) * uint64(m) * p.nnzA
			combos = make([][]float64, len(in))
			for j, x := range in {
				combos[j], err = sspmvStandard(env, ep.be, coeffs, x)
				if err != nil {
					break
				}
			}
		}
	default:
		xks, combos, err = p.fb.runMulti(ep.tri, ws.fb(p.n, m, p.opt.BtB), env, in, k, p.opt.BtB, coeffs)
	}
	if err != nil {
		return nil, nil, work{}, err
	}
	if p.perm != nil {
		unperm := func(vs [][]float64) {
			for j, v := range vs {
				out := make([]float64, p.n)
				p.perm.UnapplyVec(v, out)
				vs[j] = out
			}
		}
		unperm(xks)
		if combos != nil {
			unperm(combos)
		}
	}
	return xks, combos, wk, nil
}

// SSpMV computes sum_{i=0..len(coeffs)-1} coeffs[i] * A^i * x0 in the
// original row ordering. len(coeffs) must be at least 2 for the FB
// engine (use a plain AXPY for degree-0 polynomials).
func (p *Plan) SSpMV(coeffs, x0 []float64) ([]float64, error) {
	return p.SSpMVCtx(context.Background(), coeffs, x0)
}

// SSpMVCtx is SSpMV honoring ctx.
func (p *Plan) SSpMVCtx(ctx context.Context, coeffs, x0 []float64) ([]float64, error) {
	if len(coeffs) == 0 {
		return nil, fmt.Errorf("core: SSpMV needs at least one coefficient: %w", ErrBadCoeffs)
	}
	if len(x0) != p.n {
		return nil, fmt.Errorf("core: x0 length %d != n %d: %w", len(x0), p.n, ErrDimension)
	}
	if len(coeffs) == 1 {
		// Degree-0: pure scaling, order-independent (see SSpMVMulti).
		y := make([]float64, p.n)
		for i := range y {
			y[i] = coeffs[0] * x0[i]
		}
		return y, nil
	}
	var combo []float64
	err := p.exec(ctx, opSSpMV, func(ws *workspace, env *runEnv, ep *planEpoch) (wk work, err error) {
		_, combo, wk, err = p.run(ws, env, ep, x0, len(coeffs)-1, coeffs)
		return wk, err
	})
	if err != nil {
		return nil, err
	}
	return combo, nil
}

// SSpMVComplex evaluates y = sum coeffs[i] * A^i * x0 for complex
// coefficients (the paper's FBMPK library supports "real or complex
// constants", Section I). A is real, so y splits into independent real
// and imaginary combinations accumulated in one pipeline pass.
func (p *Plan) SSpMVComplex(coeffs []complex128, x0 []float64) (re, im []float64, err error) {
	return p.SSpMVComplexCtx(context.Background(), coeffs, x0)
}

// SSpMVComplexCtx is SSpMVComplex honoring ctx.
func (p *Plan) SSpMVComplexCtx(ctx context.Context, coeffs []complex128, x0 []float64) (re, im []float64, err error) {
	if len(coeffs) == 0 {
		return nil, nil, fmt.Errorf("core: SSpMVComplex needs at least one coefficient: %w", ErrBadCoeffs)
	}
	if len(x0) != p.n {
		return nil, nil, fmt.Errorf("core: x0 length %d != n %d: %w", len(x0), p.n, ErrDimension)
	}
	re = make([]float64, p.n)
	im = make([]float64, p.n)
	for i := range x0 {
		re[i] = real(coeffs[0]) * x0[i]
		im[i] = imag(coeffs[0]) * x0[i]
	}
	if len(coeffs) == 1 {
		return re, im, nil
	}
	k := len(coeffs) - 1
	err = p.exec(ctx, opSSpMVComplex, func(ws *workspace, env *runEnv, ep *planEpoch) (work, error) {
		// The hook sees iterates in the plan's execution ordering, so for
		// reordered plans the accumulators move into permuted space first
		// and the results unpermute once at the end.
		hook := func(power int, x []float64) {
			if c := real(coeffs[power]); c != 0 {
				sparse.AXPY(c, x, re)
			}
			if c := imag(coeffs[power]); c != 0 {
				sparse.AXPY(c, x, im)
			}
		}
		in := x0
		if p.perm != nil {
			px := ws.vec(p.n)
			p.perm.ApplyVec(x0, px)
			in = px
			pre := make([]float64, p.n)
			pim := make([]float64, p.n)
			p.perm.ApplyVec(re, pre)
			p.perm.ApplyVec(im, pim)
			re, im = pre, pim
		}
		if _, err := p.powers(ws, env, ep, in, k, hook); err != nil {
			return work{}, err
		}
		if p.perm != nil {
			ore := make([]float64, p.n)
			oim := make([]float64, p.n)
			p.perm.UnapplyVec(re, ore)
			p.perm.UnapplyVec(im, oim)
			re, im = ore, oim
		}
		return p.workPowers(k, 1), nil
	})
	if err != nil {
		return nil, nil, err
	}
	return re, im, nil
}

// run dispatches a single-vector run to the engine the plan selected,
// handling the ABMC permutation on both sides.
func (p *Plan) run(ws *workspace, env *runEnv, ep *planEpoch, x0 []float64, k int, coeffs []float64) (xk, combo []float64, wk work, err error) {
	if len(x0) != p.n {
		return nil, nil, work{}, fmt.Errorf("core: x0 length %d != n %d: %w", len(x0), p.n, ErrDimension)
	}
	in := x0
	if p.perm != nil {
		px := ws.vec(p.n)
		p.perm.ApplyVec(x0, px)
		in = px
	}

	wk = p.workPowers(k, 1)
	if p.eng == EngineForwardBackward {
		// The FB driver accumulates the combination in its row-parallel
		// vector phase rather than through a hook on one worker.
		xk, combo, err = p.fb.runVec(ep.tri, ws.fb(p.n, 1, p.opt.BtB), env, in, k, p.opt.BtB, coeffs, nil)
	} else {
		var hook IterateFunc
		if coeffs != nil {
			combo, hook = comboHook(coeffs, in)
		}
		xk, err = p.powers(ws, env, ep, in, k, hook)
	}
	if err != nil {
		return nil, nil, work{}, err
	}
	if p.perm != nil {
		out := make([]float64, p.n)
		p.perm.UnapplyVec(xk, out)
		xk = out
		if combo != nil {
			cout := make([]float64, p.n)
			p.perm.UnapplyVec(combo, cout)
			combo = cout
		}
	}
	return xk, combo, wk, nil
}
