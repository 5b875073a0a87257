package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sort"
	"time"

	"fbmpk"
	"fbmpk/internal/cachesim"
	"fbmpk/internal/mmio"
	"fbmpk/internal/reorder"
	"fbmpk/internal/serve"
	"fbmpk/internal/sparse"
)

// probeMatrix is one matrix the layer probes run on: its values, a
// second set of values with the same structure for updates, and the
// MatrixMarket bodies the workload sends for it.
type probeMatrix struct {
	name   string
	a, alt *fbmpk.Matrix
	bodies [][]byte
}

// probeSpec is what the probes need to know about a workload.
type probeSpec struct {
	mats    []probeMatrix
	threads int
	k       int // MPK power and SSpMV degree
	sweeps  int // symmetric Gauss-Seidel sweeps
}

// timeIt returns the median wall time of reps calls of f, in ms.
func timeIt(reps int, f func() error) (float64, error) {
	ts := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ts = append(ts, ms(time.Since(t0)))
	}
	return median(ts), nil
}

// probeLayers times each layer by direct calls into its public
// functions on every matrix of the workload and reads the counters
// the plans export. Every probe runs a fixed number of repetitions, so
// the counts it reports repeat exactly.
func probeLayers(ps probeSpec, out map[string]float64) error {
	ctx := context.Background()
	opts := []fbmpk.Option{fbmpk.WithThreads(ps.threads)}
	var (
		spmvNS, nnzSum, dram                 float64
		opMS                                 = map[string][]float64{}
		serialMS                             []float64
		build, reord, split, tune            time.Duration
		updMS, fpMS, hitMS, missMS, regUpdMS []float64
		abmcMS, rcmMS, levMS, mmioMS, mmioMB float64
		reads, spmvs, wait, comp             float64
		calls                                uint64
		agree, levelBlocks                   float64
		hitOverMPK                           []float64
	)
	for _, m := range ps.mats {
		a, n := m.a, m.a.Rows
		nnz := float64(len(a.Val))
		nnzSum += nnz
		x := serve.DefaultVector(n)

		y := make([]float64, n)
		t, _ := timeIt(5, func() error { sparse.SpMV(a, x, y); return nil })
		spmvNS += t * 1e6

		p, err := fbmpk.NewPlan(a, opts...)
		if err != nil {
			return fmt.Errorf("%s: plan: %w", m.name, err)
		}
		st := p.Stats()
		build += st.BuildTime
		reord += st.ReorderTime
		split += st.SplitTime
		tune += st.TuneTime

		d, err := dramPerSpMV(p, a, ps.k)
		if err != nil {
			return fmt.Errorf("%s: cachesim: %w", m.name, err)
		}
		dram += d

		coeffs, xs, b := polyCoeffs(ps.k), [][]float64{x, x}, serve.DefaultVector(n)
		opCalls := map[string]func() error{
			"mpk":      func() error { _, err := p.MPKCtx(ctx, x, ps.k); return err },
			"sspmv":    func() error { _, err := p.SSpMVCtx(ctx, coeffs, x); return err },
			"mpkmulti": func() error { _, err := p.MPKMultiCtx(ctx, xs, 4); return err },
			"symgs":    func() error { return p.SymGSCtx(ctx, b, make([]float64, n), ps.sweeps) },
		}
		for name, f := range opCalls {
			t, err := timeIt(5, f)
			if err != nil {
				p.Close()
				return fmt.Errorf("%s: %s: %w", m.name, name, err)
			}
			opMS[name] = append(opMS[name], t)
		}
		pm := p.Metrics()
		reads += pm.ReadsOfA
		spmvs += float64(pm.SpMVs)
		wait += float64(pm.WaitTime)
		comp += float64(pm.ComputeTime)
		calls += pm.Calls

		vals := []*fbmpk.Matrix{m.alt, a}
		i := 0
		t, err = timeIt(3, func() error { i++; return p.UpdateValues(vals[i%2]) })
		p.Close()
		if err != nil {
			return fmt.Errorf("%s: update: %w", m.name, err)
		}
		updMS = append(updMS, t)

		sp, err := fbmpk.NewPlan(a)
		if err != nil {
			return fmt.Errorf("%s: serial plan: %w", m.name, err)
		}
		t, err = timeIt(3, func() error { _, err := sp.MPKCtx(ctx, x, ps.k); return err })
		sp.Close()
		if err != nil {
			return err
		}
		serialMS = append(serialMS, t)

		r, err := probeRegistry(ctx, m, opts)
		if err != nil {
			return fmt.Errorf("%s: registry: %w", m.name, err)
		}
		fpMS, hitMS = append(fpMS, r[0]), append(hitMS, r[1])
		missMS, regUpdMS = append(missMS, r[2]), append(regUpdMS, r[3])
		hitOverMPK = append(hitOverMPK, r[1]/opMS["mpk"][len(opMS["mpk"])-1])

		ab, rc, lv, err := probeReorder(a)
		if err != nil {
			return fmt.Errorf("%s: reorder: %w", m.name, err)
		}
		abmcMS, rcmMS, levMS = abmcMS+ab, rcmMS+rc, levMS+lv

		bodies := m.bodies
		if bodies == nil {
			bodies = [][]byte{leadingBody(a, 1<<18)}
		}
		for _, body := range bodies {
			t, err := timeIt(3, func() error { _, _, err := mmio.Read(bytes.NewReader(body)); return err })
			if err != nil {
				return fmt.Errorf("%s: mmio: %w", m.name, err)
			}
			mmioMS += t
			mmioMB += float64(len(body)) / (1 << 20)
		}

		ag, err := verdictAgreement(m.name, a, ps.threads)
		if err != nil {
			return err
		}
		agree += ag

		lb, err := fbmpk.NewPlan(a, fbmpk.WithThreads(ps.threads), fbmpk.WithEngine(fbmpk.EngineLevelBlocked))
		if err != nil {
			return fmt.Errorf("%s: levelblock plan: %w", m.name, err)
		}
		levelBlocks += float64(lb.Stats().NumBlocks)
		lb.Close()
	}
	nm := float64(len(ps.mats))
	out["sparse.spmv_ns_per_nnz"] = spmvNS / nnzSum
	out["cachesim.dram_bytes_per_spmv"] = dram / nm
	for name, v := range opMS {
		out["core."+name+"_ms"] = median(v)
	}
	out["core.mpk_serial_ms"] = median(serialMS)
	out["core.mpk_speedup"] = median(serialMS) / median(opMS["mpk"])
	out["core.reads_of_a_per_spmv"] = reads / spmvs
	out["core.build_ms"] = ms(build)
	out["core.reorder_ms"] = ms(reord)
	out["core.split_ms"] = ms(split)
	out["core.tune_ms"] = ms(tune)
	out["core.update_ms"] = median(updMS)
	out["core.auto_verdict_agreement"] = agree / nm
	out["core.level_blocks"] = levelBlocks
	out["parallel.wait_share"] = wait / (wait + comp)
	out["parallel.wait_ms_per_op"] = wait / 1e6 / float64(calls)
	out["reorder.abmc_ms"] = abmcMS
	out["reorder.rcm_ms"] = rcmMS
	out["reorder.levels_ms"] = levMS
	out["registry.fingerprint_ms"] = median(fpMS)
	out["registry.hit_ms"] = median(hitMS)
	out["registry.miss_ms"] = median(missMS)
	out["registry.update_ms"] = median(regUpdMS)
	out["registry.hit_over_mpk"] = median(hitOverMPK)
	out["mmio.read_ms_per_mb"] = mmioMS / mmioMB
	return nil
}

// dramPerSpMV replays the plan's MPK schedule at power k through the
// cache simulator, on a cache an eighth the size of A, and returns the
// simulated DRAM bytes per SpMV.
func dramPerSpMV(p *fbmpk.Plan, a *fbmpk.Matrix, k int) (float64, error) {
	cfg := cachesim.ScaledConfig(workingSet(a), 8)
	c, err := cachesim.New(cfg)
	if err != nil {
		return 0, err
	}
	pa := p.Matrix()
	if p.Engine() == fbmpk.EngineForwardBackward {
		tri, err := sparse.Split(pa)
		if err != nil {
			return 0, err
		}
		cachesim.TraceFBMPK(c, tri, k, fbmpk.DefaultOptions(0).BtB)
	} else {
		cachesim.TraceStandardMPK(c, pa, k)
	}
	return float64(c.Stats().TotalDRAM()) / float64(k), nil
}

// probeRegistry returns the median fingerprint, hit, miss and value
// update times in ms of one matrix, each through the registry's public
// calls with the workload's plan options.
func probeRegistry(ctx context.Context, m probeMatrix, opts []fbmpk.Option) ([4]float64, error) {
	var r [4]float64
	var err error
	if r[0], err = timeIt(5, func() error { fbmpk.PlanFingerprint(m.a, opts...); return nil }); err != nil {
		return r, err
	}
	acquire := func(reg *fbmpk.Registry) error {
		p, err := reg.AcquireCtx(ctx, m.a, opts...)
		if err != nil {
			return err
		}
		return reg.Release(p)
	}
	if r[2], err = timeIt(3, func() error {
		reg := fbmpk.NewRegistry(0)
		defer reg.Close()
		return acquire(reg)
	}); err != nil {
		return r, err
	}
	reg := fbmpk.NewRegistry(0)
	defer reg.Close()
	if err := acquire(reg); err != nil {
		return r, err
	}
	if r[1], err = timeIt(7, func() error { return acquire(reg) }); err != nil {
		return r, err
	}
	vals := []*fbmpk.Matrix{m.alt, m.a}
	i := 0
	r[3], err = timeIt(3, func() error {
		i++
		p, _, err := reg.UpdateValuesCtx(ctx, vals[i%2], opts...)
		if err != nil {
			return err
		}
		return reg.Release(p)
	})
	return r, err
}

// probeReorder returns the median ABMC, RCM and level-set times in ms.
func probeReorder(a *fbmpk.Matrix) (abmc, rcm, levels float64, err error) {
	if abmc, err = timeIt(3, func() error { _, err := reorder.ABMC(a, reorder.ABMCOptions{}); return err }); err != nil {
		return
	}
	if rcm, err = timeIt(3, func() error { _, err := reorder.RCM(a); return err }); err != nil {
		return
	}
	tri, err := sparse.Split(a)
	if err != nil {
		return
	}
	levels, err = timeIt(3, func() error { _, err := reorder.LevelsLower(tri.L); return err })
	return
}

// verdictRuns is how many times the engine arbitration is repeated
// per matrix.
const verdictRuns = 4

// verdictAgreement calls the engine autotuner verdictRuns times and
// returns the share of calls that agree with the most common verdict.
// The raw verdicts go to standard error.
func verdictAgreement(name string, a *fbmpk.Matrix, threads int) (float64, error) {
	count := map[string]int{}
	var raw []string
	for i := 0; i < verdictRuns; i++ {
		d, err := fbmpk.AutotuneEngine(a, fbmpk.DefaultTuneK, fbmpk.DefaultLevelBlockBytes, threads)
		if err != nil {
			return 0, fmt.Errorf("%s: autotune: %w", name, err)
		}
		v := d.Engine.String()
		count[v]++
		raw = append(raw, v)
	}
	best := 0
	for _, c := range count {
		if c > best {
			best = c
		}
	}
	fmt.Fprintf(os.Stderr, "verdicts %s: %v\n", name, raw)
	return float64(best) / verdictRuns, nil
}

// leadingBody serializes the leading principal submatrix of a holding
// at most maxNNZ entries as a MatrixMarket body: the parse-rate sample
// for workloads that send no bodies of their own.
func leadingBody(a *fbmpk.Matrix, maxNNZ int64) []byte {
	r := sort.Search(a.Rows, func(i int) bool { return a.RowPtr[i+1] > maxNNZ })
	if r == 0 {
		r = 1
	}
	sub := &fbmpk.Matrix{Rows: r, Cols: r, RowPtr: make([]int64, 1, r+1)}
	for i := 0; i < r; i++ {
		for j := a.RowPtr[i]; j < a.RowPtr[i+1]; j++ {
			if int(a.ColIdx[j]) < r {
				sub.ColIdx = append(sub.ColIdx, a.ColIdx[j])
				sub.Val = append(sub.Val, a.Val[j])
			}
		}
		sub.RowPtr = append(sub.RowPtr, int64(len(sub.Val)))
	}
	var buf bytes.Buffer
	_ = mmio.Write(&buf, sub) // writes to a bytes.Buffer do not fail
	return buf.Bytes()
}
