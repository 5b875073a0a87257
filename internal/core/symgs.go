package core

import (
	"fmt"

	"fbmpk/internal/parallel"
	"fbmpk/internal/reorder"
	"fbmpk/internal/sparse"
)

// Symmetric Gauss-Seidel (SYMGS). The paper notes (Sections III-A and
// VII) that FBMPK's forward/backward sweep structure matches the SYMGS
// smoother of HPCG and that the same split and multi-color
// parallelization apply. This file provides that kernel on the shared
// Triangular split: one SYMGS application is
//
//	forward:  (L + D) x' = b - U x      (rows top-down)
//	backward: (D + U) x" = b - L x'     (rows bottom-up)
//
// making the library usable as the smoother substrate of a multigrid
// or HPCG-style solver — the third application class (multigrid
// methods [22]) the paper's introduction motivates.

// SymGSSerial applies sweeps symmetric Gauss-Seidel iterations to
// A x = b in place on x. Rows with a zero diagonal are skipped (their
// x entry is left unchanged), matching common practice for
// saddle-point test matrices.
func SymGSSerial(tri *sparse.Triangular, b, x []float64, sweeps int) error {
	return symGSSerial(nil, tri, b, x, sweeps)
}

// symGSSerial is SymGSSerial with a run environment (cancellation
// checked once per sweep).
func symGSSerial(env *runEnv, tri *sparse.Triangular, b, x []float64, sweeps int) error {
	n := tri.N
	if len(b) != n || len(x) != n {
		return fmt.Errorf("core: SymGS (n=%d, b=%d, x=%d): %w", n, len(b), len(x), ErrDimension)
	}
	if sweeps < 1 {
		return fmt.Errorf("core: SymGS sweeps=%d: %w", sweeps, ErrBadSweeps)
	}
	clock := env.serialClock()
	for s := 0; s < sweeps; s++ {
		if env.canceled() {
			return errCanceledRun
		}
		clock.beginSweep(phaseSymGS)
		symGSForwardRange(tri, b, x, 0, n)
		clock.endSweepCompute(phaseSymGS, int32(2*s+1))
		clock.beginSweep(phaseSymGS)
		symGSBackwardRange(tri, b, x, 0, n)
		clock.endSweepCompute(phaseSymGS, int32(2*s+2))
	}
	return nil
}

// symGSForwardRange updates x[lo:hi) with the forward sweep
// x[i] = (b[i] - L x - U x) / d[i], using the freshest x values
// (Gauss-Seidel, not Jacobi): L entries see already-updated rows.
func symGSForwardRange(tri *sparse.Triangular, b, x []float64, lo, hi int) {
	lrp, lci, lv := tri.L.RowPtr, tri.L.ColIdx, tri.L.Val
	urp, uci, uv := tri.U.RowPtr, tri.U.ColIdx, tri.U.Val
	d := tri.D
	for i := lo; i < hi; i++ {
		if d[i] == 0 {
			continue
		}
		s := b[i]
		for j := lrp[i]; j < lrp[i+1]; j++ {
			s -= lv[j] * x[lci[j]]
		}
		for j := urp[i]; j < urp[i+1]; j++ {
			s -= uv[j] * x[uci[j]]
		}
		x[i] = s / d[i]
	}
}

// symGSBackwardRange is the mirrored bottom-up sweep.
func symGSBackwardRange(tri *sparse.Triangular, b, x []float64, lo, hi int) {
	lrp, lci, lv := tri.L.RowPtr, tri.L.ColIdx, tri.L.Val
	urp, uci, uv := tri.U.RowPtr, tri.U.ColIdx, tri.U.Val
	d := tri.D
	for i := hi - 1; i >= lo; i-- {
		if d[i] == 0 {
			continue
		}
		s := b[i]
		for j := lrp[i]; j < lrp[i+1]; j++ {
			s -= lv[j] * x[lci[j]]
		}
		for j := urp[i]; j < urp[i+1]; j++ {
			s -= uv[j] * x[uci[j]]
		}
		x[i] = s / d[i]
	}
}

// SymGSParallel applies SYMGS with ABMC multi-color parallelization:
// the exact scheme FBMPK uses, reused for the smoother (colors
// ascending in the forward sweep, descending in the backward sweep,
// barrier between colors). tri and ord must describe the same
// permuted matrix; b and x are in the permuted ordering.
type SymGSParallel struct {
	tri  *sparse.Triangular
	ord  *reorder.ABMCResult
	pool *parallel.Pool
	bar  *parallel.Barrier

	colorBounds [][]int
}

// NewSymGSParallel prepares a parallel SYMGS executor over an
// ABMC-ordered split matrix.
func NewSymGSParallel(tri *sparse.Triangular, ord *reorder.ABMCResult, pool *parallel.Pool) (*SymGSParallel, error) {
	if tri.N != len(ord.Perm) {
		return nil, fmt.Errorf("core: matrix size %d != ordering size %d: %w", tri.N, len(ord.Perm), ErrDimension)
	}
	w := pool.Workers()
	g := &SymGSParallel{
		tri:  tri,
		ord:  ord,
		pool: pool,
		bar:  parallel.NewBarrier(w),
	}
	g.colorBounds = make([][]int, ord.NumColors)
	for c := 0; c < ord.NumColors; c++ {
		g.colorBounds[c] = parallel.PartitionBlocks(
			int(ord.ColorPtr[c]), int(ord.ColorPtr[c+1]), w, ord.BlockPtr)
	}
	return g, nil
}

// Apply runs sweeps SYMGS iterations on x in place.
func (g *SymGSParallel) Apply(b, x []float64, sweeps int) error {
	return g.apply(nil, g.tri, b, x, sweeps)
}

// apply is Apply with a run environment, executing on tri — any split
// sharing the structure g was scheduled for (the plan passes its
// pinned epoch's split); the cancellation protocol is the skip-mode
// scheme of FBParallel.run (workers keep crossing every barrier
// of the schedule once they observe the flag, they just stop
// computing).
func (g *SymGSParallel) apply(env *runEnv, tri *sparse.Triangular, b, x []float64, sweeps int) error {
	n := tri.N
	if len(b) != n || len(x) != n {
		return fmt.Errorf("core: SymGS (n=%d, b=%d, x=%d): %w", n, len(b), len(x), ErrDimension)
	}
	if sweeps < 1 {
		return fmt.Errorf("core: SymGS sweeps=%d: %w", sweeps, ErrBadSweeps)
	}
	nc := g.ord.NumColors
	g.pool.Run(func(id int) {
		clock := env.workerClock(id)
		skip := false
		for s := 0; s < sweeps; s++ {
			clock.beginSweep(phaseSymGS)
			for c := 0; c < nc; c++ {
				if !skip {
					bb := g.colorBounds[c]
					lo, hi := int(g.ord.BlockPtr[bb[id]]), int(g.ord.BlockPtr[bb[id+1]])
					symGSForwardRange(tri, b, x, lo, hi)
				}
				crossStep(clock, g.bar, phaseSymGS, int32(c))
				if !skip && env.canceled() {
					skip = true
				}
			}
			clock.endSweep(phaseSymGS, int32(2*s+1))
			clock.beginSweep(phaseSymGS)
			for c := nc - 1; c >= 0; c-- {
				if !skip {
					bb := g.colorBounds[c]
					lo, hi := int(g.ord.BlockPtr[bb[id]]), int(g.ord.BlockPtr[bb[id+1]])
					symGSBackwardRange(tri, b, x, lo, hi)
				}
				crossStep(clock, g.bar, phaseSymGS, int32(c))
				if !skip && env.canceled() {
					skip = true
				}
			}
			clock.endSweep(phaseSymGS, int32(2*s+2))
		}
		clock.flush()
	})
	if env.canceled() {
		return errCanceledRun
	}
	return nil
}
