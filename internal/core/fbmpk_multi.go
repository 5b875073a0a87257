package core

import (
	"fmt"

	"fbmpk/internal/sparse"
)

// Batched multi-RHS forward-backward kernels. The FB sweeps amortize
// matrix reads across the power axis (A is read (k+1)/2 times instead
// of k); the batched kernels amortize along a second axis, the
// right-hand sides: one sweep of L/U advances all m vectors, so each
// matrix read serves 2*m SpMV applications instead of 2.
// Asymptotically the matrix traffic per SpMV drops to 1/(2m) of a plain
// CSR sweep. The stripe layouts are described at fbState.
//
// The m = 4 kernels keep both stripes' partial sums in registers (the
// same 4-way unrolling discipline as sparse.SpMV); other widths
// accumulate in place through the output stripes. fbState.sweep picks
// among them.

// checkMulti validates the common batched-call arguments and returns
// (n, m).
func checkMulti(n int, xs [][]float64, k int, coeffs []float64) (int, int, error) {
	m := len(xs)
	if m < 1 {
		return 0, 0, fmt.Errorf("core: batched MPK needs at least one vector: %w", ErrEmptyBlock)
	}
	for j, x := range xs {
		if len(x) != n {
			return 0, 0, fmt.Errorf("core: vector %d length %d != n %d: %w", j, len(x), n, ErrDimension)
		}
	}
	if k < 1 {
		return 0, 0, fmt.Errorf("core: power k=%d: %w", k, ErrBadPower)
	}
	if coeffs != nil && len(coeffs) != k+1 {
		return 0, 0, fmt.Errorf("core: coeffs length %d != k+1 = %d: %w", len(coeffs), k+1, ErrBadCoeffs)
	}
	return n, m, nil
}

// packBlock gathers rows [lo, hi) of the m column vectors into the
// row-major block dst.
func packBlock(xs [][]float64, dst []float64, m, lo, hi int) {
	for j, x := range xs {
		for i := lo; i < hi; i++ {
			dst[i*m+j] = x[i]
		}
	}
}

// fbForwardBtBMultiRange is the batched forward sweep over L with the
// BtB stripe layout for rows [lo, hi): completes the next iterate in
// the odd stripes from the even stripes and, unless last, leaves
// tmp = (L + D) * x_next for the backward sweep — for all m vectors in
// one pass over L.
func fbForwardBtBMultiRange(tri *sparse.Triangular, xy, tmp []float64, m, lo, hi int, last bool) {
	rp, ci, v := tri.L.RowPtr, tri.L.ColIdx, tri.L.Val
	d := tri.D
	if last {
		for i := lo; i < hi; i++ {
			eb := 2 * i * m
			even := xy[eb : eb+m]
			odd := xy[eb+m : eb+2*m : eb+2*m]
			ti := tmp[i*m : i*m+m]
			di := d[i]
			for c := range odd {
				odd[c] = ti[c] + di*even[c]
			}
			for j := rp[i]; j < rp[i+1]; j++ {
				cb := 2 * int(ci[j]) * m
				xe := xy[cb : cb+m]
				vj := v[j]
				for c := range odd {
					odd[c] += vj * xe[c]
				}
			}
		}
		return
	}
	for i := lo; i < hi; i++ {
		eb := 2 * i * m
		even := xy[eb : eb+m]
		odd := xy[eb+m : eb+2*m : eb+2*m]
		ti := tmp[i*m : i*m+m : i*m+m]
		di := d[i]
		for c := range odd {
			odd[c] = ti[c] + di*even[c]
			ti[c] = 0
		}
		for j := rp[i]; j < rp[i+1]; j++ {
			cb := 2 * int(ci[j]) * m
			xe := xy[cb : cb+m]
			xo := xy[cb+m : cb+2*m]
			vj := v[j]
			for c := range odd {
				odd[c] += vj * xe[c]
				ti[c] += vj * xo[c]
			}
		}
		for c := range odd {
			ti[c] += di * odd[c]
		}
	}
}

// fbForwardBtBMulti4Range is the register-blocked m = 4 forward sweep.
// Stripe accesses go through fixed-length windows (xy[cb:cb+8:cb+8]) so
// a single slice check covers the whole stripe — see
// internal/sparse/spmv.go for the idiom.
func fbForwardBtBMulti4Range(rp []int64, ci []int32, v, d, xy, tmp []float64, lo, hi int, last bool) {
	if last {
		for i := lo; i < hi; i++ {
			ib := 8 * i
			xi := xy[ib : ib+8 : ib+8]
			ti := tmp[4*i : 4*i+4 : 4*i+4]
			di := d[i]
			s0 := ti[0] + di*xi[0]
			s1 := ti[1] + di*xi[1]
			s2 := ti[2] + di*xi[2]
			s3 := ti[3] + di*xi[3]
			cr := ci[rp[i]:rp[i+1]]
			vr := v[rp[i]:rp[i+1]]
			vr = vr[:len(cr)]
			for k := 0; k < len(cr); k++ {
				cb := 8 * int(cr[k])
				w := xy[cb : cb+4 : cb+4]
				vj := vr[k]
				s0 += vj * w[0]
				s1 += vj * w[1]
				s2 += vj * w[2]
				s3 += vj * w[3]
			}
			xi[4], xi[5], xi[6], xi[7] = s0, s1, s2, s3
		}
		return
	}
	for i := lo; i < hi; i++ {
		ib := 8 * i
		xi := xy[ib : ib+8 : ib+8]
		ti := tmp[4*i : 4*i+4 : 4*i+4]
		di := d[i]
		s0 := ti[0] + di*xi[0]
		s1 := ti[1] + di*xi[1]
		s2 := ti[2] + di*xi[2]
		s3 := ti[3] + di*xi[3]
		var u0, u1, u2, u3 float64
		cr := ci[rp[i]:rp[i+1]]
		vr := v[rp[i]:rp[i+1]]
		vr = vr[:len(cr)]
		for k := 0; k < len(cr); k++ {
			cb := 8 * int(cr[k])
			w := xy[cb : cb+8 : cb+8]
			vj := vr[k]
			s0 += vj * w[0]
			s1 += vj * w[1]
			s2 += vj * w[2]
			s3 += vj * w[3]
			u0 += vj * w[4]
			u1 += vj * w[5]
			u2 += vj * w[6]
			u3 += vj * w[7]
		}
		xi[4], xi[5], xi[6], xi[7] = s0, s1, s2, s3
		ti[0] = u0 + di*s0
		ti[1] = u1 + di*s1
		ti[2] = u2 + di*s2
		ti[3] = u3 + di*s3
	}
}

// fbBackwardBtBMultiRange is the batched backward sweep over U:
// completes the next iterate in the even stripes from the odd stripes,
// bottom-up, and unless last leaves tmp = U * x_next.
func fbBackwardBtBMultiRange(tri *sparse.Triangular, xy, tmp []float64, m, lo, hi int, last bool) {
	rp, ci, v := tri.U.RowPtr, tri.U.ColIdx, tri.U.Val
	if last {
		for i := hi - 1; i >= lo; i-- {
			eb := 2 * i * m
			even := xy[eb : eb+m : eb+m]
			ti := tmp[i*m : i*m+m]
			copy(even, ti)
			for j := rp[i]; j < rp[i+1]; j++ {
				cb := 2 * int(ci[j]) * m
				xo := xy[cb+m : cb+2*m]
				vj := v[j]
				for c := range even {
					even[c] += vj * xo[c]
				}
			}
		}
		return
	}
	for i := hi - 1; i >= lo; i-- {
		eb := 2 * i * m
		even := xy[eb : eb+m : eb+m]
		ti := tmp[i*m : i*m+m : i*m+m]
		copy(even, ti)
		for c := range ti {
			ti[c] = 0
		}
		for j := rp[i]; j < rp[i+1]; j++ {
			cb := 2 * int(ci[j]) * m
			xe := xy[cb : cb+m]
			xo := xy[cb+m : cb+2*m]
			vj := v[j]
			for c := range even {
				even[c] += vj * xo[c]
				ti[c] += vj * xe[c]
			}
		}
	}
}

// fbBackwardBtBMulti4Range is the register-blocked m = 4 backward sweep.
func fbBackwardBtBMulti4Range(rp []int64, ci []int32, v, xy, tmp []float64, lo, hi int, last bool) {
	if last {
		for i := hi - 1; i >= lo; i-- {
			ti := tmp[4*i : 4*i+4 : 4*i+4]
			s0, s1, s2, s3 := ti[0], ti[1], ti[2], ti[3]
			cr := ci[rp[i]:rp[i+1]]
			vr := v[rp[i]:rp[i+1]]
			vr = vr[:len(cr)]
			for k := 0; k < len(cr); k++ {
				cb := 8 * int(cr[k])
				w := xy[cb+4 : cb+8 : cb+8]
				vj := vr[k]
				s0 += vj * w[0]
				s1 += vj * w[1]
				s2 += vj * w[2]
				s3 += vj * w[3]
			}
			ib := 8 * i
			xi := xy[ib : ib+4 : ib+4]
			xi[0], xi[1], xi[2], xi[3] = s0, s1, s2, s3
		}
		return
	}
	for i := hi - 1; i >= lo; i-- {
		ti := tmp[4*i : 4*i+4 : 4*i+4]
		s0, s1, s2, s3 := ti[0], ti[1], ti[2], ti[3]
		var u0, u1, u2, u3 float64
		cr := ci[rp[i]:rp[i+1]]
		vr := v[rp[i]:rp[i+1]]
		vr = vr[:len(cr)]
		for k := 0; k < len(cr); k++ {
			cb := 8 * int(cr[k])
			w := xy[cb : cb+8 : cb+8]
			vj := vr[k]
			s0 += vj * w[4]
			s1 += vj * w[5]
			s2 += vj * w[6]
			s3 += vj * w[7]
			u0 += vj * w[0]
			u1 += vj * w[1]
			u2 += vj * w[2]
			u3 += vj * w[3]
		}
		ib := 8 * i
		xi := xy[ib : ib+4 : ib+4]
		xi[0], xi[1], xi[2], xi[3] = s0, s1, s2, s3
		ti[0], ti[1], ti[2], ti[3] = u0, u1, u2, u3
	}
}

// fbForwardSepMultiRange is the batched forward sweep with separate
// row-major blocks: xprev holds x_t, xnext receives x_{t+1}.
func fbForwardSepMultiRange(tri *sparse.Triangular, xprev, xnext, tmp []float64, m, lo, hi int, last bool) {
	rp, ci, v := tri.L.RowPtr, tri.L.ColIdx, tri.L.Val
	d := tri.D
	if last {
		for i := lo; i < hi; i++ {
			xi := xprev[i*m : i*m+m]
			ni := xnext[i*m : i*m+m : i*m+m]
			ti := tmp[i*m : i*m+m]
			di := d[i]
			for c := range ni {
				ni[c] = ti[c] + di*xi[c]
			}
			for j := rp[i]; j < rp[i+1]; j++ {
				xv := xprev[int(ci[j])*m : int(ci[j])*m+m]
				vj := v[j]
				for c := range ni {
					ni[c] += vj * xv[c]
				}
			}
		}
		return
	}
	for i := lo; i < hi; i++ {
		xi := xprev[i*m : i*m+m]
		ni := xnext[i*m : i*m+m : i*m+m]
		ti := tmp[i*m : i*m+m : i*m+m]
		di := d[i]
		for c := range ni {
			ni[c] = ti[c] + di*xi[c]
			ti[c] = 0
		}
		for j := rp[i]; j < rp[i+1]; j++ {
			cb := int(ci[j]) * m
			xv := xprev[cb : cb+m]
			nv := xnext[cb : cb+m]
			vj := v[j]
			for c := range ni {
				ni[c] += vj * xv[c]
				ti[c] += vj * nv[c]
			}
		}
		for c := range ni {
			ti[c] += di * ni[c]
		}
	}
}

// fbForwardSepMulti4Range is the register-blocked m = 4 separate-layout
// forward sweep.
func fbForwardSepMulti4Range(rp []int64, ci []int32, v, d, xprev, xnext, tmp []float64, lo, hi int, last bool) {
	if last {
		for i := lo; i < hi; i++ {
			o := 4 * i
			xi := xprev[o : o+4 : o+4]
			ti := tmp[o : o+4 : o+4]
			di := d[i]
			s0 := ti[0] + di*xi[0]
			s1 := ti[1] + di*xi[1]
			s2 := ti[2] + di*xi[2]
			s3 := ti[3] + di*xi[3]
			cr := ci[rp[i]:rp[i+1]]
			vr := v[rp[i]:rp[i+1]]
			vr = vr[:len(cr)]
			for k := 0; k < len(cr); k++ {
				cb := 4 * int(cr[k])
				xp := xprev[cb : cb+4 : cb+4]
				vj := vr[k]
				s0 += vj * xp[0]
				s1 += vj * xp[1]
				s2 += vj * xp[2]
				s3 += vj * xp[3]
			}
			ni := xnext[o : o+4 : o+4]
			ni[0], ni[1], ni[2], ni[3] = s0, s1, s2, s3
		}
		return
	}
	for i := lo; i < hi; i++ {
		o := 4 * i
		xi := xprev[o : o+4 : o+4]
		ti := tmp[o : o+4 : o+4]
		di := d[i]
		s0 := ti[0] + di*xi[0]
		s1 := ti[1] + di*xi[1]
		s2 := ti[2] + di*xi[2]
		s3 := ti[3] + di*xi[3]
		var u0, u1, u2, u3 float64
		cr := ci[rp[i]:rp[i+1]]
		vr := v[rp[i]:rp[i+1]]
		vr = vr[:len(cr)]
		for k := 0; k < len(cr); k++ {
			cb := 4 * int(cr[k])
			xp := xprev[cb : cb+4 : cb+4]
			xn := xnext[cb : cb+4 : cb+4]
			vj := vr[k]
			s0 += vj * xp[0]
			s1 += vj * xp[1]
			s2 += vj * xp[2]
			s3 += vj * xp[3]
			u0 += vj * xn[0]
			u1 += vj * xn[1]
			u2 += vj * xn[2]
			u3 += vj * xn[3]
		}
		ni := xnext[o : o+4 : o+4]
		ni[0], ni[1], ni[2], ni[3] = s0, s1, s2, s3
		ti[0] = u0 + di*s0
		ti[1] = u1 + di*s1
		ti[2] = u2 + di*s2
		ti[3] = u3 + di*s3
	}
}

// fbBackwardSepMultiRange is the batched backward sweep with separate
// blocks: xprev holds x_t (the odd iterate), xnext receives x_{t+1}.
func fbBackwardSepMultiRange(tri *sparse.Triangular, xnext, xprev, tmp []float64, m, lo, hi int, last bool) {
	rp, ci, v := tri.U.RowPtr, tri.U.ColIdx, tri.U.Val
	if last {
		for i := hi - 1; i >= lo; i-- {
			ni := xnext[i*m : i*m+m : i*m+m]
			ti := tmp[i*m : i*m+m]
			copy(ni, ti)
			for j := rp[i]; j < rp[i+1]; j++ {
				xv := xprev[int(ci[j])*m : int(ci[j])*m+m]
				vj := v[j]
				for c := range ni {
					ni[c] += vj * xv[c]
				}
			}
		}
		return
	}
	for i := hi - 1; i >= lo; i-- {
		ni := xnext[i*m : i*m+m : i*m+m]
		ti := tmp[i*m : i*m+m : i*m+m]
		copy(ni, ti)
		for c := range ti {
			ti[c] = 0
		}
		for j := rp[i]; j < rp[i+1]; j++ {
			cb := int(ci[j]) * m
			xv := xprev[cb : cb+m]
			nv := xnext[cb : cb+m]
			vj := v[j]
			for c := range ni {
				ni[c] += vj * xv[c]
				ti[c] += vj * nv[c]
			}
		}
	}
}

// fbBackwardSepMulti4Range is the register-blocked m = 4 separate-layout
// backward sweep.
func fbBackwardSepMulti4Range(rp []int64, ci []int32, v, xnext, xprev, tmp []float64, lo, hi int, last bool) {
	if last {
		for i := hi - 1; i >= lo; i-- {
			o := 4 * i
			ti := tmp[o : o+4 : o+4]
			s0, s1, s2, s3 := ti[0], ti[1], ti[2], ti[3]
			cr := ci[rp[i]:rp[i+1]]
			vr := v[rp[i]:rp[i+1]]
			vr = vr[:len(cr)]
			for k := 0; k < len(cr); k++ {
				cb := 4 * int(cr[k])
				xp := xprev[cb : cb+4 : cb+4]
				vj := vr[k]
				s0 += vj * xp[0]
				s1 += vj * xp[1]
				s2 += vj * xp[2]
				s3 += vj * xp[3]
			}
			ni := xnext[o : o+4 : o+4]
			ni[0], ni[1], ni[2], ni[3] = s0, s1, s2, s3
		}
		return
	}
	for i := hi - 1; i >= lo; i-- {
		o := 4 * i
		ti := tmp[o : o+4 : o+4]
		s0, s1, s2, s3 := ti[0], ti[1], ti[2], ti[3]
		var u0, u1, u2, u3 float64
		cr := ci[rp[i]:rp[i+1]]
		vr := v[rp[i]:rp[i+1]]
		vr = vr[:len(cr)]
		for k := 0; k < len(cr); k++ {
			cb := 4 * int(cr[k])
			xp := xprev[cb : cb+4 : cb+4]
			xn := xnext[cb : cb+4 : cb+4]
			vj := vr[k]
			s0 += vj * xp[0]
			s1 += vj * xp[1]
			s2 += vj * xp[2]
			s3 += vj * xp[3]
			u0 += vj * xn[0]
			u1 += vj * xn[1]
			u2 += vj * xn[2]
			u3 += vj * xn[3]
		}
		ni := xnext[o : o+4 : o+4]
		ni[0], ni[1], ni[2], ni[3] = s0, s1, s2, s3
		ti[0], ti[1], ti[2], ti[3] = u0, u1, u2, u3
	}
}
