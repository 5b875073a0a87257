package core

import (
	"math"
	"math/rand"
	"testing"

	"fbmpk/internal/parallel"
	"fbmpk/internal/reorder"
	"fbmpk/internal/sparse"
)

func TestFBParallelRunCapture(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	n := 70
	a := randomSymCSR(rng, n, 3)
	ord, b, err := reorder.ABMCReorder(a, reorder.ABMCOptions{NumBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	tri, _ := sparse.Split(b)
	for _, workers := range []int{0, 1, 3} {
		// workers == 0 is the one-worker schedule without a pool.
		var pool *parallel.Pool
		if workers > 0 {
			pool = parallel.NewPool(workers)
		}
		fb, err := NewFBParallel(tri, ord, pool)
		if err != nil {
			t.Fatal(err)
		}
		x0 := randVec(rng, n)
		px := make([]float64, n)
		ord.Perm.ApplyVec(x0, px)
		for _, btb := range []bool{false, true} {
			for _, k := range []int{1, 4, 5} {
				var seen []int
				_, _, err := fb.RunCapture(px, k, btb, nil, func(p int, x []float64) {
					seen = append(seen, p)
					want := refMPK(b, px, p)
					if d := sparse.RelMaxDiff(x, want); d > 1e-10 {
						t.Errorf("workers=%d btb=%v k=%d iterate %d: diff %g",
							workers, btb, k, p, d)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(seen) != k {
					t.Errorf("workers=%d btb=%v k=%d: captured %v", workers, btb, k, seen)
				}
				for i, p := range seen {
					if p != i+1 {
						t.Errorf("capture order %v", seen)
						break
					}
				}
			}
		}
		if pool != nil {
			pool.Close()
		}
	}
}

func TestPlanMPKAll(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	n := 60
	a := randomSymCSR(rng, n, 3)
	x0 := randVec(rng, n)
	k := 5
	for i, opt := range []Options{
		{Engine: EngineStandard},
		{Engine: EngineStandard, Threads: 2},
		{Engine: EngineForwardBackward, BtB: true},
		{Engine: EngineForwardBackward},
		DefaultOptions(3),
	} {
		p, err := NewPlan(a, opt)
		if err != nil {
			t.Fatal(err)
		}
		all, err := p.MPKAll(x0, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != k+1 {
			t.Fatalf("case %d: %d iterates, want %d", i, len(all), k+1)
		}
		if sparse.MaxAbsDiff(all[0], x0) != 0 {
			t.Errorf("case %d: iterate 0 is not x0", i)
		}
		for pow := 1; pow <= k; pow++ {
			want := refMPK(a, x0, pow)
			if d := sparse.RelMaxDiff(all[pow], want); d > 1e-10 {
				t.Errorf("case %d: iterate %d diff %g", i, pow, d)
			}
		}
		if _, err := p.MPKAll(make([]float64, n-1), k); err == nil {
			t.Errorf("case %d: accepted short x0", i)
		}
		p.Close()
	}
}

func TestPlanSSpMVComplex(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	n := 50
	a := randomSymCSR(rng, n, 3)
	x0 := randVec(rng, n)
	coeffs := []complex128{1 + 2i, 0.5 - 1i, complex(0, 0.25), 3}
	// Reference via two real SSpMV runs.
	reC := make([]float64, len(coeffs))
	imC := make([]float64, len(coeffs))
	for i, c := range coeffs {
		reC[i] = real(c)
		imC[i] = imag(c)
	}
	wantRe, err := SSpMVStandard(a, reC, x0)
	if err != nil {
		t.Fatal(err)
	}
	wantIm, err := SSpMVStandard(a, imC, x0)
	if err != nil {
		t.Fatal(err)
	}
	for i, opt := range []Options{
		{Engine: EngineStandard},
		{Engine: EngineStandard, Threads: 2},
		{Engine: EngineForwardBackward, BtB: true},
		DefaultOptions(2),
	} {
		p, err := NewPlan(a, opt)
		if err != nil {
			t.Fatal(err)
		}
		re, im, err := p.SSpMVComplex(coeffs, x0)
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.RelMaxDiff(re, wantRe); d > 1e-10 {
			t.Errorf("case %d: real part diff %g", i, d)
		}
		if d := sparse.RelMaxDiff(im, wantIm); d > 1e-10 {
			t.Errorf("case %d: imaginary part diff %g", i, d)
		}
		// Degenerate single-coefficient case.
		re1, im1, err := p.SSpMVComplex([]complex128{2 - 3i}, x0)
		if err != nil {
			t.Fatal(err)
		}
		for j := range re1 {
			if math.Abs(re1[j]-2*x0[j]) > 1e-12 || math.Abs(im1[j]+3*x0[j]) > 1e-12 {
				t.Fatalf("case %d: degenerate complex combo wrong", i)
			}
		}
		if _, _, err := p.SSpMVComplex(nil, x0); err == nil {
			t.Errorf("case %d: accepted empty coefficients", i)
		}
		if _, _, err := p.SSpMVComplex(coeffs, x0[:n-1]); err == nil {
			t.Errorf("case %d: accepted short x0", i)
		}
		p.Close()
	}
}
