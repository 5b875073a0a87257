// Package core implements the paper's contribution: the
// forward-backward matrix-power kernel (FBMPK) with the back-to-back
// vector layout and ABMC-based parallelization, plus the standard MPK
// baseline it is evaluated against, and the generic SSpMV form
// y = sum_i alpha_i A^i x both engines support.
package core

import (
	"fmt"

	"fbmpk/internal/parallel"
	"fbmpk/internal/sparse"
)

// IterateFunc receives each completed MPK iterate: power is the
// exponent (1..k) and x the iterate A^power x0. The slice is scratch
// owned by the kernel — copy it to retain it.
type IterateFunc func(power int, x []float64)

// StandardMPK is the baseline of Algorithm 1: k back-to-back SpMV
// invocations xi = A*x_{i-1}, reading the full matrix k times. The
// result A^k x0 is returned in a fresh slice. onIterate, when non-nil,
// observes every iterate including the last.
func StandardMPK(a *sparse.CSR, x0 []float64, k int, onIterate IterateFunc) ([]float64, error) {
	return standardMPK(nil, csrBackend{a: a}, x0, k, onIterate)
}

// standardMPK is StandardMPK generalized over the execution backend,
// with a run environment: the cancel flag is checked once per power.
func standardMPK(env *runEnv, be execBackend, x0 []float64, k int, onIterate IterateFunc) ([]float64, error) {
	if be.rows() != be.cols() {
		return nil, fmt.Errorf("core: StandardMPK: %w", sparse.ErrNotSquare)
	}
	if len(x0) != be.rows() {
		return nil, fmt.Errorf("core: x0 length %d != n %d: %w", len(x0), be.rows(), ErrDimension)
	}
	if k < 1 {
		return nil, fmt.Errorf("core: power k=%d: %w", k, ErrBadPower)
	}
	ph := be.phase()
	x := sparse.CopyVec(x0)
	y := make([]float64, be.rows())
	clock := env.serialClock()
	for power := 1; power <= k; power++ {
		if env.canceled() {
			return nil, errCanceledRun
		}
		clock.beginSweep(ph)
		be.spmv(x, y)
		x, y = y, x
		clock.endSweepCompute(ph, int32(power))
		if onIterate != nil {
			onIterate(power, x)
		}
	}
	return x, nil
}

// StandardMPKParallel is the baseline with a row-parallel SpMV kernel:
// rows are partitioned by nonzero count once, and the workers
// barrier-synchronize between the k invocations. This mirrors the
// paper's baseline methodology ("the same optimized SpMV kernel").
func StandardMPKParallel(a *sparse.CSR, x0 []float64, k int, pool *parallel.Pool, onIterate IterateFunc) ([]float64, error) {
	return standardMPKParallel(nil, csrBackend{a: a}, x0, k, pool, onIterate)
}

// standardMPKParallel is StandardMPKParallel generalized over the
// execution backend, with a run environment: workers poll the cancel
// flag after each power barrier and switch to skip mode (crossing the
// remaining barriers without computing), the same protocol as
// FBParallel.run. The backend's partition supplies worker row
// bounds aligned to its storage granularity, so ranges write disjoint
// y entries.
func standardMPKParallel(env *runEnv, be execBackend, x0 []float64, k int, pool *parallel.Pool, onIterate IterateFunc) ([]float64, error) {
	if be.rows() != be.cols() {
		return nil, fmt.Errorf("core: StandardMPKParallel: %w", sparse.ErrNotSquare)
	}
	if len(x0) != be.rows() {
		return nil, fmt.Errorf("core: x0 length %d != n %d: %w", len(x0), be.rows(), ErrDimension)
	}
	if k < 1 {
		return nil, fmt.Errorf("core: power k=%d: %w", k, ErrBadPower)
	}
	ph := be.phase()
	bounds := be.partition(pool.Workers())
	x := sparse.CopyVec(x0)
	y := make([]float64, be.rows())
	bar := parallel.NewBarrier(pool.Workers())
	pool.Run(func(id int) {
		clock := env.workerClock(id)
		skip := false
		lo, hi := bounds[id], bounds[id+1]
		src, dst := x, y
		for power := 1; power <= k; power++ {
			clock.beginSweep(ph)
			if !skip {
				be.spmvRange(src, dst, lo, hi)
			}
			src, dst = dst, src
			// All writers must finish before anyone reads dst as the
			// next source, and before the iterate callback fires.
			crossStep(clock, bar, ph, -1)
			if !skip && env.canceled() {
				skip = true
			}
			if onIterate != nil {
				if id == 0 && !skip {
					onIterate(power, src)
				}
				crossStep(clock, bar, ph, -1)
			}
			clock.endSweep(ph, int32(power))
		}
		clock.flush()
	})
	if env.canceled() {
		return nil, errCanceledRun
	}
	if k%2 == 1 {
		x, y = y, x
	}
	_ = y
	return x, nil
}

// StandardMPKBatch computes A^k applied to nv vectors at once via
// SpMM: one pass over the matrix serves the whole block per power, so
// A is read k times total instead of k*nv — the block analogue of the
// MPK traffic argument, used by subspace iteration. xs holds the nv
// start vectors; the result is nv fresh vectors.
func StandardMPKBatch(a *sparse.CSR, xs [][]float64, k int) ([][]float64, error) {
	return standardMPKBatch(nil, csrBackend{a: a}, xs, k)
}

// standardMPKBatch is StandardMPKBatch generalized over the execution
// backend, with a run environment (cancellation checked once per
// power).
func standardMPKBatch(env *runEnv, be execBackend, xs [][]float64, k int) ([][]float64, error) {
	if be.rows() != be.cols() {
		return nil, fmt.Errorf("core: StandardMPKBatch: %w", sparse.ErrNotSquare)
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("core: StandardMPKBatch: %w", ErrEmptyBlock)
	}
	if k < 1 {
		return nil, fmt.Errorf("core: power k=%d: %w", k, ErrBadPower)
	}
	for c, x := range xs {
		if len(x) != be.rows() {
			return nil, fmt.Errorf("core: vector %d length %d != n %d: %w", c, len(x), be.rows(), ErrDimension)
		}
	}
	ph := be.phase()
	nv := len(xs)
	x := sparse.PackVectors(xs)
	y := make([]float64, len(x))
	clock := env.serialClock()
	for power := 0; power < k; power++ {
		if env.canceled() {
			return nil, errCanceledRun
		}
		clock.beginSweep(ph)
		be.spmm(x, y, nv)
		x, y = y, x
		clock.endSweepCompute(ph, int32(power+1))
	}
	return sparse.UnpackVectors(x, be.rows(), nv), nil
}

// SSpMVStandard evaluates y = sum_{i=0..k} coeffs[i] * A^i * x0 with
// the standard engine (k = len(coeffs)-1 SpMV sweeps).
func SSpMVStandard(a *sparse.CSR, coeffs []float64, x0 []float64) ([]float64, error) {
	return sspmvStandard(nil, csrBackend{a: a}, coeffs, x0)
}

// sspmvStandard is SSpMVStandard generalized over the execution
// backend, with a run environment.
func sspmvStandard(env *runEnv, be execBackend, coeffs []float64, x0 []float64) ([]float64, error) {
	if len(coeffs) == 0 {
		return nil, fmt.Errorf("core: SSpMV needs at least one coefficient: %w", ErrBadCoeffs)
	}
	if len(x0) != be.rows() {
		return nil, fmt.Errorf("core: x0 length %d != n %d: %w", len(x0), be.rows(), ErrDimension)
	}
	n := len(x0)
	y := make([]float64, n)
	for i := range y {
		y[i] = coeffs[0] * x0[i]
	}
	if len(coeffs) == 1 {
		return y, nil
	}
	_, err := standardMPK(env, be, x0, len(coeffs)-1, func(power int, x []float64) {
		c := coeffs[power]
		if c == 0 {
			return
		}
		sparse.AXPY(c, x, y)
	})
	if err != nil {
		return nil, err
	}
	return y, nil
}
