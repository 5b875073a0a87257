package fbmpk

// Differential backend tests: every execution backend (forced SELL,
// forced BSR, autotuned) must reproduce the split-CSR baseline of the
// same engine configuration across serial, parallel, forward-backward,
// and multi-RHS entry points. Backends only change the storage format
// of the full-matrix kernels — the in-row summation order — so the
// comparison is against a plan with identical options and the CSR
// backend, at the tight backendTol rather than the looser cross-engine
// diffTol. These deterministic sweeps mirror FuzzDifferentialBackend
// in fuzz_test.go, and ci.sh re-runs them under -race.

import (
	"fmt"
	"math/rand"
	"testing"
)

// backendTol bounds forced-backend deviation from the CSR backend of
// the *same* plan configuration: only the per-row accumulation order
// differs, so the tolerance is tighter than the cross-engine diffTol.
const backendTol = 1e-12

// backendEngineCases enumerates the engine configurations each backend
// is differentially tested under: standard serial/parallel (with and
// without ABMC reordering, so the SELL sigma sort composes with the
// block ordering) and forward-backward serial/parallel (whose sweeps
// stay on split CSR whatever the backend, so its results must not move).
func backendEngineCases(threads int) []engineCase {
	cases := []engineCase{
		{"std/serial", Options{Engine: EngineStandard}},
		{"std/parallel", Options{Engine: EngineStandard, Threads: threads}},
		{"std/parallel/abmc", Options{Engine: EngineStandard, Threads: threads, ForceABMC: true, NumBlocks: 8}},
		{"fb/serial/btb", Options{Engine: EngineForwardBackward, BtB: true}},
		{"fb/parallel/sep", Options{Engine: EngineForwardBackward, Threads: threads, NumBlocks: 8}},
	}
	for i := range cases {
		cases[i].opt.SelfCheck = true
	}
	return cases
}

// backendVariants lists the non-default backends under test, including
// non-canonical SELL spellings (sigma not a chunk multiple) to cover
// the parameter folding.
func backendVariants() []engineCase {
	return []engineCase{
		{"sell", Options{Backend: BackendSELL}},
		{"sell/c16", Options{Backend: BackendSELL, SELLChunk: 16, SELLSigma: 100}},
		{"bsr", Options{Backend: BackendBSR}},
		{"bsr/b2", Options{Backend: BackendBSR, BSRBlock: 2}},
		{"auto", Options{Backend: BackendAuto}},
	}
}

// withBackend overlays a backend variant onto an engine configuration.
func withBackend(base Options, v engineCase) Options {
	base.Backend = v.opt.Backend
	base.SELLChunk = v.opt.SELLChunk
	base.SELLSigma = v.opt.SELLSigma
	base.BSRBlock = v.opt.BSRBlock
	return base
}

// TestBackendDifferentialEngines checks MPK (both sweep parities),
// SSpMV, and MPKAll of every backend x engine combination against the
// CSR backend of the same engine configuration.
func TestBackendDifferentialEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	cases := backendEngineCases(4)
	for _, n := range []int{0, 1, 3, 17, 40} {
		for kind := 0; kind < 4; kind++ {
			a := diffMatrix(rng, n, kind)
			x0 := diffVec(rng, n)
			coeffs := diffVec(rng, 5) // degree 4

			for _, c := range cases {
				base, err := NewPlan(a, c.opt)
				if err != nil {
					t.Fatal(err)
				}
				want4, err := base.MPK(x0, 4)
				if err != nil {
					t.Fatal(err)
				}
				want5, err := base.MPK(x0, 5)
				if err != nil {
					t.Fatal(err)
				}
				wantCombo, err := base.SSpMV(coeffs, x0)
				if err != nil {
					t.Fatal(err)
				}
				wantAll, err := base.MPKAll(x0, 4)
				if err != nil {
					t.Fatal(err)
				}
				base.Close()

				for _, v := range backendVariants() {
					t.Run(fmt.Sprintf("n%d/kind%d/%s/%s", n, kind, c.name, v.name), func(t *testing.T) {
						p, err := NewPlan(a, withBackend(c.opt, v))
						if err != nil {
							t.Fatal(err)
						}
						defer p.Close()

						got, err := p.MPK(x0, 4)
						if err != nil {
							t.Fatal(err)
						}
						if d := relMaxDiff(t, got, want4); d > backendTol {
							t.Errorf("MPK k=4: deviation %g", d)
						}
						got, err = p.MPK(x0, 5)
						if err != nil {
							t.Fatal(err)
						}
						if d := relMaxDiff(t, got, want5); d > backendTol {
							t.Errorf("MPK k=5: deviation %g", d)
						}
						combo, err := p.SSpMV(coeffs, x0)
						if err != nil {
							t.Fatal(err)
						}
						if d := relMaxDiff(t, combo, wantCombo); d > backendTol {
							t.Errorf("SSpMV: deviation %g", d)
						}
						all, err := p.MPKAll(x0, 4)
						if err != nil {
							t.Fatal(err)
						}
						for pw := 0; pw <= 4; pw++ {
							if d := relMaxDiff(t, all[pw], wantAll[pw]); d > backendTol {
								t.Errorf("MPKAll power %d: deviation %g", pw, d)
							}
						}
					})
				}
			}
		}
	}
}

// TestBackendDifferentialMulti checks the batched (multi-RHS) paths —
// including the register-blocked m=4 SpMM kernels — of every backend
// against the CSR backend of the same engine configuration.
func TestBackendDifferentialMulti(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cases := backendEngineCases(4)
	for _, n := range []int{0, 1, 17, 33} {
		for kind := 0; kind < 4; kind++ {
			a := diffMatrix(rng, n, kind)
			coeffs := diffVec(rng, 4) // degree 3
			for _, m := range []int{1, 4} {
				xs := make([][]float64, m)
				for j := range xs {
					xs[j] = diffVec(rng, n)
				}
				for _, c := range cases {
					base, err := NewPlan(a, c.opt)
					if err != nil {
						t.Fatal(err)
					}
					wantK, err := base.MPKMulti(xs, 3)
					if err != nil {
						t.Fatal(err)
					}
					wantC, err := base.SSpMVMulti(coeffs, xs)
					if err != nil {
						t.Fatal(err)
					}
					base.Close()

					for _, v := range backendVariants() {
						t.Run(fmt.Sprintf("n%d/kind%d/m%d/%s/%s", n, kind, m, c.name, v.name), func(t *testing.T) {
							p, err := NewPlan(a, withBackend(c.opt, v))
							if err != nil {
								t.Fatal(err)
							}
							defer p.Close()
							gotK, err := p.MPKMulti(xs, 3)
							if err != nil {
								t.Fatal(err)
							}
							gotC, err := p.SSpMVMulti(coeffs, xs)
							if err != nil {
								t.Fatal(err)
							}
							for j := 0; j < m; j++ {
								if d := relMaxDiff(t, gotK[j], wantK[j]); d > backendTol {
									t.Errorf("MPKMulti col %d: deviation %g", j, d)
								}
								if d := relMaxDiff(t, gotC[j], wantC[j]); d > backendTol {
									t.Errorf("SSpMVMulti col %d: deviation %g", j, d)
								}
							}
						})
					}
				}
			}
		}
	}
}

// TestBackendDifferentialBaseline anchors the backend comparisons to
// the absolute reference: forced backends must also match the serial
// standard baseline (Algorithm 1) within the cross-engine tolerance,
// so a backend cannot hide behind a broken CSR plan.
func TestBackendDifferentialBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, n := range []int{2, 17, 40} {
		for kind := 0; kind < 4; kind++ {
			a := diffMatrix(rng, n, kind)
			x0 := diffVec(rng, n)
			want, err := StandardMPK(a, x0, 5)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range backendVariants() {
				t.Run(fmt.Sprintf("n%d/kind%d/%s", n, kind, v.name), func(t *testing.T) {
					opt := withBackend(Options{Engine: EngineStandard, SelfCheck: true}, v)
					p, err := NewPlan(a, opt)
					if err != nil {
						t.Fatal(err)
					}
					defer p.Close()
					got, err := p.MPK(x0, 5)
					if err != nil {
						t.Fatal(err)
					}
					if d := relMaxDiff(t, got, want); d > diffTol {
						t.Errorf("deviation %g from serial baseline", d)
					}
				})
			}
		}
	}
}
