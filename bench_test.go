package fbmpk

// One testing.B benchmark per paper table/figure (see DESIGN.md §4 for
// the index). These run at a small default scale so `go test -bench=.`
// finishes quickly; cmd/fbmpkbench runs the full-size sweeps with the
// paper's methodology and prints the corresponding tables.

import (
	"fmt"
	"runtime"
	"testing"

	"fbmpk/internal/cachesim"
	"fbmpk/internal/core"
	"fbmpk/internal/reorder"
	"fbmpk/internal/sparse"
)

const benchScale = 0.004

// benchMatrices is the representative subset used by the heavier
// sweeps: large/small, symmetric/unsymmetric, dense/sparse rows.
var benchMatrices = []string{"audikw_1", "cant", "G3_circuit", "cage14"}

func benchMatrix(b *testing.B, name string) *Matrix {
	b.Helper()
	m, err := GenerateSuiteMatrix(name, benchScale, 1)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func benchVec(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 + float64(i%7)*0.125
	}
	return x
}

// BenchmarkTable2Suite measures suite-matrix generation (the workload
// builder behind every other experiment).
func BenchmarkTable2Suite(b *testing.B) {
	for _, name := range SuiteNames() {
		b.Run(name, func(b *testing.B) {
			var nnz int64
			for i := 0; i < b.N; i++ {
				m, err := GenerateSuiteMatrix(name, benchScale, 1)
				if err != nil {
					b.Fatal(err)
				}
				nnz = m.NNZ()
			}
			b.ReportMetric(float64(nnz), "nnz")
		})
	}
}

// BenchmarkFig7 is the headline comparison: baseline MPK vs FBMPK at
// k=5 across the whole suite.
func BenchmarkFig7(b *testing.B) {
	const k = 5
	for _, name := range SuiteNames() {
		m := benchMatrix(b, name)
		x0 := benchVec(m.Rows)
		for _, eng := range []struct {
			label string
			opt   Options
		}{
			{"baseline", Options{Engine: EngineStandard, Threads: runtime.GOMAXPROCS(0)}},
			{"fbmpk", DefaultOptions(runtime.GOMAXPROCS(0))},
		} {
			b.Run(name+"/"+eng.label, func(b *testing.B) {
				p, err := NewPlan(m, eng.opt)
				if err != nil {
					b.Fatal(err)
				}
				defer p.Close()
				b.SetBytes(m.MemoryBytes() * k)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := p.MPK(x0, k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig8 sweeps the power k for the representative subset.
func BenchmarkFig8(b *testing.B) {
	for _, name := range benchMatrices {
		m := benchMatrix(b, name)
		x0 := benchVec(m.Rows)
		for _, k := range []int{3, 6, 9} {
			for _, eng := range []struct {
				label string
				opt   Options
			}{
				{"baseline", Options{Engine: EngineStandard}},
				{"fbmpk", DefaultOptions(1)},
			} {
				b.Run(fmt.Sprintf("%s/k=%d/%s", name, k, eng.label), func(b *testing.B) {
					p, err := NewPlan(m, eng.opt)
					if err != nil {
						b.Fatal(err)
					}
					defer p.Close()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := p.MPK(x0, k); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkFig9 runs the cache-simulator traffic comparison (the
// DRAM-volume experiment; the ratio is printed as a metric).
func BenchmarkFig9(b *testing.B) {
	for _, name := range benchMatrices {
		m := benchMatrix(b, name)
		tri, err := sparse.Split(m)
		if err != nil {
			b.Fatal(err)
		}
		cfg := cachesim.ScaledConfig(m.MemoryBytes(), 8)
		for _, k := range []int{3, 9} {
			b.Run(fmt.Sprintf("%s/k=%d", name, k), func(b *testing.B) {
				var ratio float64
				for i := 0; i < b.N; i++ {
					std, fb, err := cachesim.CompareMPK(cfg, m, tri, k, true)
					if err != nil {
						b.Fatal(err)
					}
					ratio = float64(fb.TotalDRAM()) / float64(std.TotalDRAM())
				}
				b.ReportMetric(ratio*100, "traffic_%")
			})
		}
	}
}

// BenchmarkFig10 is the layout ablation: serial FB vs FB+BtB vs the
// serial baseline, across the whole suite at k=5.
func BenchmarkFig10(b *testing.B) {
	const k = 5
	for _, name := range SuiteNames() {
		m := benchMatrix(b, name)
		x0 := benchVec(m.Rows)
		tri, err := sparse.Split(m)
		if err != nil {
			b.Fatal(err)
		}
		fb, err := core.NewFBParallel(tri, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/baseline", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := StandardMPK(m, x0, k); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/FB", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := fb.Run(x0, k, false, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/FB+BtB", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := fb.Run(x0, k, true, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable3 measures a single SpMV on the natural versus the
// ABMC-permuted matrix.
func BenchmarkTable3(b *testing.B) {
	for _, name := range benchMatrices {
		m := benchMatrix(b, name)
		_, perm, err := reorder.ABMCReorder(m, reorder.ABMCOptions{})
		if err != nil {
			b.Fatal(err)
		}
		x := benchVec(m.Rows)
		y := make([]float64, m.Rows)
		b.Run(name+"/natural", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sparse.SpMV(m, x, y)
			}
		})
		b.Run(name+"/abmc", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sparse.SpMV(perm, x, y)
			}
		})
	}
}

// BenchmarkTable4Storage measures the L+D+U split (the storage
// transformation whose cost Table IV's layout implies).
func BenchmarkTable4Storage(b *testing.B) {
	for _, name := range benchMatrices {
		m := benchMatrix(b, name)
		b.Run(name, func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				tri, err := sparse.Split(m)
				if err != nil {
					b.Fatal(err)
				}
				bytes = tri.MemoryBytes()
			}
			b.ReportMetric(float64(bytes)/float64(m.MemoryBytes()), "size_ratio")
		})
	}
}

// BenchmarkFig11 measures the ABMC preprocessing step itself.
func BenchmarkFig11(b *testing.B) {
	for _, name := range benchMatrices {
		m := benchMatrix(b, name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := reorder.ABMCReorder(m, reorder.ABMCOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig12 sweeps worker counts for parallel FBMPK.
func BenchmarkFig12(b *testing.B) {
	const k = 5
	for _, name := range []string{"inline_1", "G3_circuit", "cant"} {
		m := benchMatrix(b, name)
		x0 := benchVec(m.Rows)
		for _, threads := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/t=%d", name, threads), func(b *testing.B) {
				p, err := NewPlan(m, DefaultOptions(threads))
				if err != nil {
					b.Fatal(err)
				}
				defer p.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := p.MPK(x0, k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFBMulti is the batched multi-RHS headline: m=4 batched FBMPK
// versus 4 independent FBMPK runs on the largest suite matrix
// (Flan_1565, the biggest nnz in Table II). The bytes_per_spmv metric
// is the bandwidth model: matrix bytes read per SpMV application —
// (k+1)/(2k) of the matrix per vector for single-vector FBMPK, divided
// by m when batched.
func BenchmarkFBMulti(b *testing.B) {
	const k, m = 5, 4
	mtx := benchMatrix(b, "Flan_1565")
	xs := make([][]float64, m)
	for j := range xs {
		xs[j] = benchVec(mtx.Rows)
		xs[j][j] += 1 // decorrelate the right-hand sides
	}
	p, err := NewPlan(mtx, DefaultOptions(runtime.GOMAXPROCS(0)))
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	readsPerSpMV := float64(mtx.MemoryBytes()) * float64(k+1) / (2 * float64(k))
	b.Run("batched_m4", func(b *testing.B) {
		b.SetBytes(mtx.MemoryBytes() * int64(k) * int64(m))
		b.ReportMetric(readsPerSpMV/float64(m), "bytes_per_spmv")
		for i := 0; i < b.N; i++ {
			if _, err := p.MPKMulti(xs, k); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("independent_x4", func(b *testing.B) {
		b.SetBytes(mtx.MemoryBytes() * int64(k) * int64(m))
		b.ReportMetric(readsPerSpMV, "bytes_per_spmv")
		for i := 0; i < b.N; i++ {
			for j := range xs {
				if _, err := p.MPK(xs[j], k); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkSpMVKernel is the microbenchmark for the shared SpMV kernel
// both engines build on (the paper's "heavily optimized" baseline).
func BenchmarkSpMVKernel(b *testing.B) {
	m := benchMatrix(b, "pwtk")
	x := benchVec(m.Rows)
	y := make([]float64, m.Rows)
	b.SetBytes(m.MemoryBytes())
	for i := 0; i < b.N; i++ {
		sparse.SpMV(m, x, y)
	}
}

// BenchmarkSSpMVCombo measures the fused y = sum c_i A^i x pipeline
// against evaluating it with the standard engine.
func BenchmarkSSpMVCombo(b *testing.B) {
	m := benchMatrix(b, "Serena")
	x0 := benchVec(m.Rows)
	coeffs := []float64{1, 0.5, 0.25, 0.125, 0.0625, 0.03125}
	b.Run("standard", func(b *testing.B) {
		p, err := NewPlan(m, Options{Engine: EngineStandard})
		if err != nil {
			b.Fatal(err)
		}
		defer p.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.SSpMV(coeffs, x0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fbmpk", func(b *testing.B) {
		p, err := NewPlan(m, DefaultOptions(1))
		if err != nil {
			b.Fatal(err)
		}
		defer p.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.SSpMV(coeffs, x0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
