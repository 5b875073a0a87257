package main

import (
	"math"
	"math/rand"

	"fbmpk"
	"fbmpk/internal/serve"
	"fbmpk/internal/sparse"
)

// relTol is the relative tolerance every result is held to against
// its serial reference.
const relTol = 1e-9

// relErr is max_i |got_i - want_i| / max_i |want_i|; +Inf on a length
// mismatch or a non-finite result.
func relErr(got, want []float64) float64 {
	if len(got) != len(want) {
		return math.Inf(1)
	}
	var d, scale float64
	for i := range got {
		if math.IsNaN(got[i]) || math.IsInf(got[i], 0) {
			return math.Inf(1)
		}
		d = math.Max(d, math.Abs(got[i]-want[i]))
		scale = math.Max(scale, math.Abs(want[i]))
	}
	if scale == 0 {
		return d
	}
	return d / scale
}

// refPowers returns A^1 x0 ... A^k x0 by k serial SpMVs.
func refPowers(a *fbmpk.Matrix, x0 []float64, k int) [][]float64 {
	out := make([][]float64, k)
	x := x0
	for p := range out {
		y := make([]float64, a.Rows)
		sparse.SpMV(a, x, y)
		out[p], x = y, y
	}
	return out
}

// refSSpMV returns sum_i coeffs[i] A^i x0.
func refSSpMV(a *fbmpk.Matrix, coeffs, x0 []float64) []float64 {
	y := make([]float64, a.Rows)
	for j := range y {
		y[j] = coeffs[0] * x0[j]
	}
	for p, v := range refPowers(a, x0, len(coeffs)-1) {
		for j := range y {
			y[j] += coeffs[p+1] * v[j]
		}
	}
	return y
}

// refSymGS runs sweeps symmetric Gauss-Seidel sweeps for A x = b from
// x = 0 on a serial plan in the same ABMC order a parallel plan uses,
// which is the order the result depends on.
func refSymGS(a *fbmpk.Matrix, b []float64, sweeps int) ([]float64, error) {
	p, err := fbmpk.NewPlan(a, fbmpk.WithThreads(1), fbmpk.WithForceABMC(true))
	if err != nil {
		return nil, err
	}
	defer p.Close()
	x := make([]float64, a.Rows)
	return x, p.SymGS(b, x, sweeps)
}

// refOp returns the reference result of op on a with the daemon's
// default start vector and right-hand side.
func refOp(a *fbmpk.Matrix, o opSpec) ([]float64, error) {
	x0 := serve.DefaultVector(a.Rows)
	switch o.Name {
	case "sspmv":
		return refSSpMV(a, o.Coeffs, x0), nil
	case "solve":
		return refSymGS(a, x0, o.Sweeps)
	}
	ps := refPowers(a, x0, o.K)
	return ps[len(ps)-1], nil
}

// randVec returns n values uniform in [-1, 1).
func randVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 2*rng.Float64() - 1
	}
	return x
}

// withValues returns a matrix of a's structure with seeded new values:
// each value scaled by a factor in [0.5, 1.5), so every value keeps its
// sign and no diagonal entry becomes zero.
func withValues(a *fbmpk.Matrix, rng *rand.Rand) *fbmpk.Matrix {
	b := a.Clone()
	for i := range b.Val {
		b.Val[i] *= 0.5 + rng.Float64()
	}
	return b
}
