package core

import (
	"fmt"

	"fbmpk/internal/parallel"
	"fbmpk/internal/reorder"
	"fbmpk/internal/sparse"
)

// FBParallel executes the forward-backward pipeline (Algorithm 2) for
// one split matrix, serially or in parallel over an ABMC ordering.
// With a pool the matrix must already be permuted by the ABMC ordering;
// blocks of one color are distributed over the workers, colors run in
// sequence with a barrier in between — ascending in the forward sweep,
// descending in the backward sweep — which is exactly the dependency
// structure the coloring guarantees safe. Without a pool the run is the
// one-worker case of the same schedule: the calling goroutine sweeps
// the single row range [0, n), crosses no barriers, and needs no
// ordering (any row order is legal for a full sweep). Per-row
// arithmetic is identical in every schedule, so serial and parallel
// runs are bitwise identical.
type FBParallel struct {
	tri  *sparse.Triangular
	pool *parallel.Pool    // nil: one worker, run inline
	bar  *parallel.Barrier // nil without a pool

	// steps[c][id]..steps[c][id+1] is worker id's row range in step c
	// of a sweep: one contiguous block range per color, balanced by row
	// count ("the number of blocks for each thread task are allocated in
	// advance", Algorithm 2), or the single step [0, n) without a pool.
	steps [][]int
	head  []int // row partition for the head SpMV over U
	dense []int // even row partition for vector updates
}

// NewFBParallel prepares a forward-backward executor for tri. With a
// pool (borrowed, not owned), tri must be the split of the
// ABMC-permuted matrix and ord the ordering that produced it; with a
// nil pool the executor runs serially and ord may be nil.
func NewFBParallel(tri *sparse.Triangular, ord *reorder.ABMCResult, pool *parallel.Pool) (*FBParallel, error) {
	f := &FBParallel{tri: tri, pool: pool}
	if pool == nil {
		whole := []int{0, tri.N}
		f.steps, f.head, f.dense = [][]int{whole}, whole, whole
		return f, nil
	}
	if tri.N != len(ord.Perm) {
		return nil, fmt.Errorf("core: matrix size %d != ordering size %d: %w", tri.N, len(ord.Perm), ErrDimension)
	}
	w := pool.Workers()
	f.bar = parallel.NewBarrier(w)
	f.steps = make([][]int, ord.NumColors)
	for c := range f.steps {
		blocks := parallel.PartitionBlocks(int(ord.ColorPtr[c]), int(ord.ColorPtr[c+1]), w, ord.BlockPtr)
		rows := make([]int, w+1)
		for id, b := range blocks {
			rows[id] = int(ord.BlockPtr[b])
		}
		f.steps[c] = rows
	}
	f.head = parallel.PartitionByPtr(tri.N, w, tri.U.RowPtr)
	f.dense = parallel.PartitionRows(tri.N, w, func(int) int64 { return 1 })
	return f, nil
}

// Run computes A^k x0 (x0 and the result in the executor's row
// numbering, i.e. PERMUTED for an ABMC executor). btb selects the
// interleaved layout; coeffs (nil or length k+1) additionally
// accumulates the SSpMV combination sum coeffs[i] * A^i * x0.
func (f *FBParallel) Run(x0 []float64, k int, btb bool, coeffs []float64) (xk, combo []float64, err error) {
	return f.RunCapture(x0, k, btb, coeffs, nil)
}

// RunCapture is Run with an iterate observer: onIterate fires after
// every completed power, on worker 0, with all other workers past the
// sweep that produced it (so the scratch iterate is stable while
// observed).
func (f *FBParallel) RunCapture(x0 []float64, k int, btb bool, coeffs []float64, onIterate IterateFunc) (xk, combo []float64, err error) {
	return f.runVec(f.tri, nil, nil, x0, k, btb, coeffs, onIterate)
}

// RunMulti computes A^k x_j for every vector in xs with one batched
// pipeline pass: every sweep of L/U advances all m vectors, so each
// matrix read serves 2*m SpMV applications. coeffs (nil or length k+1)
// additionally accumulates the SSpMV combination for every vector.
func (f *FBParallel) RunMulti(xs [][]float64, k int, btb bool, coeffs []float64) (xks, combos [][]float64, err error) {
	return f.runMulti(f.tri, nil, nil, xs, k, btb, coeffs)
}

// runVec is RunCapture with an externally supplied pipeline state (nil
// allocates) and run environment, executing on tri — any split sharing
// the structure f was scheduled for (the plan passes its pinned
// epoch's split, so value updates never touch a run in flight).
func (f *FBParallel) runVec(tri *sparse.Triangular, st *fbState, env *runEnv, x0 []float64, k int, btb bool, coeffs []float64, onIterate IterateFunc) (xk, combo []float64, err error) {
	n := tri.N
	if len(x0) != n {
		return nil, nil, fmt.Errorf("core: x0 length %d != n %d: %w", len(x0), n, ErrDimension)
	}
	if k < 1 {
		return nil, nil, fmt.Errorf("core: power k=%d: %w", k, ErrBadPower)
	}
	if coeffs != nil && len(coeffs) != k+1 {
		return nil, nil, fmt.Errorf("core: coeffs length %d != k+1 = %d: %w", len(coeffs), k+1, ErrBadCoeffs)
	}
	if st == nil {
		st = newFBState(n, 1, btb)
	}
	combo, err = f.run(tri, st, env, x0, nil, k, coeffs, onIterate)
	if err != nil {
		return nil, nil, err
	}
	xk = make([]float64, n)
	st.unpack([][]float64{xk}, k%2 == 1)
	return xk, combo, nil
}

// runMulti is RunMulti with an externally supplied state and run
// environment (see runVec).
func (f *FBParallel) runMulti(tri *sparse.Triangular, st *fbState, env *runEnv, xs [][]float64, k int, btb bool, coeffs []float64) (xks, combos [][]float64, err error) {
	n, m, err := checkMulti(tri.N, xs, k, coeffs)
	if err != nil {
		return nil, nil, err
	}
	if st == nil {
		st = newFBState(n, m, btb)
	}
	var x0 []float64
	if m == 1 {
		x0, xs = xs[0], nil
	}
	cmb, err := f.run(tri, st, env, x0, xs, k, coeffs, nil)
	if err != nil {
		return nil, nil, err
	}
	xks = make([][]float64, m)
	for j := range xks {
		xks[j] = make([]float64, n)
	}
	st.unpack(xks, k%2 == 1)
	if cmb != nil {
		combos = sparse.UnpackVectors(cmb, n, m)
	}
	return xks, combos, nil
}

// run is the one forward-backward driver. The start vectors are xs —
// m of them, packed into the state's start block by the workers — or,
// when xs is nil, the single vector x0. st must be sized for n rows
// and m vectors (see fbState.fit); the powers stay in it on return and
// the combination block (n*m row-major, nil without coeffs) is
// returned. onIterate (single vector only) observes each power.
//
// Cancellation protocol: each worker polls env's flag after every
// step; a worker that observes it switches to skip mode — it stops
// computing but keeps crossing every barrier of the schedule, so
// workers that read the flag at different boundaries can never
// deadlock each other, and the pool is immediately reusable
// afterwards. If the flag was set the run returns errCanceledRun and
// the state is unspecified.
func (f *FBParallel) run(tri *sparse.Triangular, st *fbState, env *runEnv, x0 []float64, xs [][]float64, k int, coeffs []float64, onIterate IterateFunc) ([]float64, error) {
	n := tri.N
	r := fbRun{f: f, tri: tri, st: st, env: env, x0: x0, m: 1, k: k, coeffs: coeffs, onIterate: onIterate}
	if xs != nil {
		r.xs, r.m, r.x0 = xs, len(xs), st.x0b
	}
	if coeffs != nil {
		r.cmb = make([]float64, n*r.m)
	}
	if onIterate != nil {
		r.scratch = make([]float64, n)
	}
	if n == 0 {
		return r.cmb, nil
	}
	if f.pool == nil {
		r.worker(0)
	} else {
		// The pool's job escapes to the heap; building it from a copy
		// keeps the one-worker run free of that allocation.
		shared := r
		f.pool.Run(shared.worker)
	}
	if env.canceled() {
		return nil, errCanceledRun
	}
	return r.cmb, nil
}

// fbRun is one execution of the pipeline: what its workers share.
type fbRun struct {
	f         *FBParallel
	tri       *sparse.Triangular
	st        *fbState
	env       *runEnv
	x0        []float64   // packed start block (n*m)
	xs        [][]float64 // vectors packed into x0, nil for one vector
	m, k      int
	coeffs    []float64
	cmb       []float64 // combination block, nil without coeffs
	onIterate IterateFunc
	scratch   []float64 // iterate copy handed to onIterate
}

// worker runs worker id's share of the schedule.
func (r *fbRun) worker(id int) {
	f, st, m := r.f, r.st, r.m
	clock := r.env.clock(f.pool, id)
	skip := false // cancellation observed: cross barriers, do no work
	dLo, dHi := f.dense[id], f.dense[id+1]
	// Init: pack the start block, seed the even slots and the combo.
	if r.xs != nil {
		packBlock(r.xs, r.x0, m, dLo, dHi)
	}
	st.init(r.x0, m, dLo, dHi)
	if r.cmb != nil {
		c0 := r.coeffs[0]
		for i := dLo * m; i < dHi*m; i++ {
			r.cmb[i] = c0 * r.x0[i]
		}
	}
	crossStep(clock, f.bar, phaseHead, -1)
	// Head: tmp = U * x0.
	sparse.SpMMRange(r.tri.U, r.x0, st.tmp, m, f.head[id], f.head[id+1])
	crossStep(clock, f.bar, phaseHead, -1)
	skip = r.env.canceled()

	nsteps := len(f.steps)
	for t := 1; t <= r.k; t++ {
		// Odd powers come from forward sweeps over the colors in
		// ascending order, even powers from backward sweeps.
		forward := t%2 == 1
		ph := phaseBackward
		if forward {
			ph = phaseForward
		}
		clock.beginSweep(ph)
		for s := 0; s < nsteps; s++ {
			c := s
			if !forward {
				c = nsteps - 1 - s
			}
			if !skip {
				st.sweep(r.tri, forward, m, f.steps[c][id], f.steps[c][id+1], t == r.k)
			}
			crossStep(clock, f.bar, ph, int32(c))
			if !skip && r.env.canceled() {
				skip = true
			}
		}
		clock.endSweep(ph, int32(t))
		if skip {
			continue
		}
		if r.cmb != nil && r.coeffs[t] != 0 {
			st.accumulate(r.cmb, r.coeffs[t], m, forward, dLo, dHi)
		}
		// The sweep that follows never writes the slots being read
		// (forward writes odd, backward writes even), and the other
		// workers cannot start a second sweep before worker 0 joins
		// their next barrier, so no extra synchronization is needed.
		if r.onIterate != nil && id == 0 {
			st.unpack([][]float64{r.scratch}, forward)
			r.onIterate(t, r.scratch)
		}
	}
	clock.flush()
}

// crossStep ends one step of a worker's schedule: it closes the
// compute span and, when bar is non-nil, waits at the barrier and
// records the wait. One-worker schedules pass a nil barrier.
func crossStep(clock *phaseClock, bar *parallel.Barrier, ph phase, step int32) {
	clock.endCompute(ph, step)
	if bar != nil {
		bar.Wait()
		clock.endWait(ph, step)
	}
}
