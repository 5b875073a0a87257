package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"fbmpk"
	"fbmpk/internal/serve"
)

// libOp is one operation of the lib-large cycle on one matrix, with
// its fixed seeded inputs and its serial reference result.
type libOp struct {
	name  string
	spmvs int
	call  func(ctx context.Context, p *fbmpk.Plan) ([][]float64, error)
	want  [][]float64
}

// libMatrix is one lib-large input matrix and its operation cycle.
type libMatrix struct {
	name string
	spec serve.GeneratorSpec
	a    *fbmpk.Matrix
	ops  []libOp
	plan *fbmpk.Plan
}

// libOps builds the operation cycle on a, each about 8
// SpMV-equivalents: MPK k=8, SSpMV of degree 8, MPKMulti of two
// vectors at k=4, and 4 symmetric Gauss-Seidel sweeps (8 reads of A).
func libOps(a *fbmpk.Matrix, rng *rand.Rand) ([]libOp, error) {
	n := a.Rows
	x, xs := randVec(rng, n), [][]float64{randVec(rng, n), randVec(rng, n)}
	sx, coeffs, b := randVec(rng, n), polyCoeffs(8), randVec(rng, n)
	gs, err := refSymGS(a, b, 4)
	if err != nil {
		return nil, fmt.Errorf("symgs reference: %w", err)
	}
	mpk := refPowers(a, x, 8)
	multi0, multi1 := refPowers(a, xs[0], 4), refPowers(a, xs[1], 4)
	return []libOp{
		{name: "mpk", spmvs: 8, want: [][]float64{mpk[7]},
			call: func(ctx context.Context, p *fbmpk.Plan) ([][]float64, error) {
				y, err := p.MPKCtx(ctx, x, 8)
				return [][]float64{y}, err
			}},
		{name: "sspmv", spmvs: 8, want: [][]float64{refSSpMV(a, coeffs, sx)},
			call: func(ctx context.Context, p *fbmpk.Plan) ([][]float64, error) {
				y, err := p.SSpMVCtx(ctx, coeffs, sx)
				return [][]float64{y}, err
			}},
		{name: "mpkmulti", spmvs: 8, want: [][]float64{multi0[3], multi1[3]},
			call: func(ctx context.Context, p *fbmpk.Plan) ([][]float64, error) {
				return p.MPKMultiCtx(ctx, xs, 4)
			}},
		{name: "symgs", spmvs: 8, want: [][]float64{gs},
			call: func(ctx context.Context, p *fbmpk.Plan) ([][]float64, error) {
				y := make([]float64, n)
				err := p.SymGSCtx(ctx, b, y, 4)
				return [][]float64{y}, err
			}},
	}, nil
}

// verifyLib reports whether an operation's results match its reference.
func verifyLib(op libOp, got [][]float64, err error) bool {
	if err != nil || len(got) != len(op.want) {
		return false
	}
	for i := range got {
		if relErr(got[i], op.want[i]) > relTol {
			return false
		}
	}
	return true
}

// libInputs generates lib-large's matrices and operation inputs:
// cage14 at scale 0.1 and G3_circuit at scale 0.2, both well past L2
// and the default level-block budget, with opposite structure.
func libInputs(seed uint64) ([]*libMatrix, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	var out []*libMatrix
	for _, m := range []struct {
		name  string
		scale float64
	}{{"cage14", 0.1}, {"G3_circuit", 0.2}} {
		a, err := fbmpk.GenerateSuiteMatrix(m.name, m.scale, seed)
		if err != nil {
			return nil, err
		}
		ops, err := libOps(a, rng)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
		out = append(out, &libMatrix{name: fmt.Sprintf("%s@%g", m.name, m.scale), a: a, ops: ops,
			spec: serve.GeneratorSpec{Name: m.name, Scale: m.scale, Seed: seed}})
	}
	return out, nil
}

// libSetup builds every plan and runs its first operation, verified,
// reps times; it returns the median set-up time and keeps the last
// repetition's plans.
func libSetup(ms []*libMatrix, reps int) (float64, error) {
	var times []float64
	for rep := 0; rep < reps; rep++ {
		for _, m := range ms {
			if m.plan != nil {
				m.plan.Close()
				m.plan = nil
			}
		}
		runtime.GC() // start every repetition from the same heap
		t0 := time.Now()
		for _, m := range ms {
			p, err := fbmpk.NewPlan(m.a, planOptions...)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", m.name, err)
			}
			m.plan = p
			got, err := m.ops[0].call(context.Background(), p)
			if !verifyLib(m.ops[0], got, err) {
				return 0, fmt.Errorf("%s: first %s result wrong (err %v)", m.name, m.ops[0].name, err)
			}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// libSample is one timed lib-large operation.
type libSample struct {
	dur    time.Duration
	ok     bool
	spmvNZ float64
}

// libLoop runs the operation cycle closed-loop from one goroutine for
// dur, and at least once around: every op of the first matrix, then of
// the next, and around.
// With a tracer, each call gets a core.<op> span whose children are
// the phases the plan reports in a request timeline.
func libLoop(ms []*libMatrix, dur time.Duration, tr *tracer) ([]libSample, time.Duration) {
	var out []libSample
	nops := len(ms[0].ops)
	start := time.Now()
	cycle := nops * len(ms)
	for i := 0; i < cycle || time.Since(start) < dur; i++ {
		m := ms[(i/nops)%len(ms)]
		op := m.ops[i%nops]
		ctx := context.Background()
		var tl *fbmpk.RequestTimeline
		if tr != nil {
			tl = fbmpk.NewRequestTimeline(fmt.Sprint(i), time.Now())
			ctx = fbmpk.ContextWithTimeline(ctx, tl)
		}
		t0 := time.Now()
		got, err := op.call(ctx, m.plan)
		t1 := time.Now()
		if tr != nil {
			id := tr.record("core."+op.name, 0, int64(i), t0, t1)
			tr.phases(id, int64(i), tl.StartTime(), tl.Snapshot())
		}
		s := libSample{dur: t1.Sub(t0), ok: verifyLib(op, got, err)}
		if s.ok {
			s.spmvNZ = float64(op.spmvs) * float64(len(m.a.Val))
		}
		out = append(out, s)
	}
	return out, time.Since(start)
}

// libSummary condenses a closed-loop run.
func libSummary(ss []libSample, wall time.Duration) (sum summary, gnnz float64) {
	lat := make([]float64, 0, len(ss))
	var busy time.Duration
	var work float64
	ok := 0
	for _, s := range ss {
		sum.Attempted++
		busy += s.dur
		if !s.ok {
			sum.Failed++
			sum.Wrong++
			lat = append(lat, posInf)
			continue
		}
		ok++
		work += s.spmvNZ
		lat = append(lat, ms(s.dur))
	}
	sum.P50, sum.P95 = quantile(lat, 0.5), quantile(lat, 0.95)
	sum.OpsPerS = float64(ok) / wall.Seconds()
	sum.SpMVNNZ = work
	if busy > 0 {
		gnnz = work / busy.Seconds() / 1e9
	}
	return sum, gnnz
}
