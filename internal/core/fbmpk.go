package core

import "fbmpk/internal/sparse"

// The forward-backward pipeline (Section III-B). State machine:
//
//	head:     tmp = U*x0                       (one pass over U)
//	forward:  x_{t+1}[i] = tmp[i] + d[i]*x_t[i] + (L*x_t)[i]
//	          and, pipelined in the same pass over L,
//	          tmp[i] = (L*x_{t+1})[i] + d[i]*x_{t+1}[i]
//	backward: x_{t+1}[i] = tmp[i] + (U*x_t)[i]  (rows bottom-up)
//	          and, pipelined, tmp[i] = (U*x_{t+1})[i]
//
// The forward lookahead is legal because L is strictly lower: row i
// only needs x_{t+1}[j] for j < i, already produced this sweep.
// Mirrored reasoning covers the backward sweep over strictly upper U.
// Each sweep reads its triangle once but completes one iterate and
// half of the next, so A is read about (k+1)/2 times instead of k.
// The final sweep skips the lookahead (nothing follows it), which is
// the "tail" of the paper's Algorithm 2.
//
// Two storage layouts implement the same pipeline:
//
//   - separate: iterates alternate between two plain arrays (the "FB"
//     variant of the Fig 10 ablation);
//   - back-to-back (BtB, Section III-C): both live iterates interleave
//     in one array xy with xy[2i] / xy[2i+1], so the two loads the
//     inner loop issues per L/U entry share a cache line.

// fbState carries the pipeline buffers of an m-vector run so plans can
// reuse them across calls without reallocating. Every slot is a stripe
// of m contiguous components (component j of row i at i*m + j), so the
// m = 1 layouts are the single-vector ones:
//
//   - separate: two row-major blocks a, b alternating even/odd
//     iterates;
//   - BtB: one block xy with xy[(2i+p)*m + j] interleaving the two live
//     iterates (parity p) of all m vectors, so the inner loop touches
//     one contiguous 2m-wide stripe per matrix column.
type fbState struct {
	tmp []float64 // n*m
	xy  []float64 // BtB layout, 2*n*m (nil for the separate layout)
	a   []float64 // separate layout: even iterates
	b   []float64 // separate layout: odd iterates
	x0b []float64 // packed start block (m > 1 only)
}

func newFBState(n, m int, btb bool) *fbState {
	return (&fbState{}).fit(n, m, btb)
}

// fit sizes the buffers for n rows, m vectors and the given layout,
// reusing the backing arrays when their capacity allows.
func (s *fbState) fit(n, m int, btb bool) *fbState {
	s.tmp = ensureLen(s.tmp, n*m)
	if m > 1 {
		s.x0b = ensureLen(s.x0b, n*m)
	}
	if btb {
		s.xy = ensureLen(s.xy, 2*n*m)
		s.a, s.b = nil, nil
	} else {
		s.a = ensureLen(s.a, n*m)
		s.b = ensureLen(s.b, n*m)
		s.xy = nil
	}
	return s
}

// sweep runs one sweep over rows [lo, hi), completing the next iterate
// (odd slots forward, even slots backward) and, unless last, the
// lookahead in tmp. It is the one place a kernel is chosen: the scalar
// kernel for m = 1, the register-blocked one for m = 4, the generic
// m-wide one otherwise.
func (s *fbState) sweep(tri *sparse.Triangular, forward bool, m, lo, hi int, last bool) {
	L, U, d := tri.L, tri.U, tri.D
	switch {
	case forward && s.xy != nil && m == 1:
		fbForwardBtBRange(tri, s.xy, s.tmp, lo, hi, last)
	case forward && s.xy != nil && m == 4:
		fbForwardBtBMulti4Range(L.RowPtr, L.ColIdx, L.Val, d, s.xy, s.tmp, lo, hi, last)
	case forward && s.xy != nil:
		fbForwardBtBMultiRange(tri, s.xy, s.tmp, m, lo, hi, last)
	case forward && m == 1:
		fbForwardSepRange(tri, s.a, s.b, s.tmp, lo, hi, last)
	case forward && m == 4:
		fbForwardSepMulti4Range(L.RowPtr, L.ColIdx, L.Val, d, s.a, s.b, s.tmp, lo, hi, last)
	case forward:
		fbForwardSepMultiRange(tri, s.a, s.b, s.tmp, m, lo, hi, last)
	case s.xy != nil && m == 1:
		fbBackwardBtBRange(tri, s.xy, s.tmp, lo, hi, last)
	case s.xy != nil && m == 4:
		fbBackwardBtBMulti4Range(U.RowPtr, U.ColIdx, U.Val, s.xy, s.tmp, lo, hi, last)
	case s.xy != nil:
		fbBackwardBtBMultiRange(tri, s.xy, s.tmp, m, lo, hi, last)
	case m == 1:
		fbBackwardSepRange(tri, s.a, s.b, s.tmp, lo, hi, last)
	case m == 4:
		fbBackwardSepMulti4Range(U.RowPtr, U.ColIdx, U.Val, s.a, s.b, s.tmp, lo, hi, last)
	default:
		fbBackwardSepMultiRange(tri, s.a, s.b, s.tmp, m, lo, hi, last)
	}
}

// iterate returns the slots holding the odd (forward-sweep) or even
// iterate: the backing array, the offset of row 0's stripe, and the
// distance between consecutive rows' stripes.
func (s *fbState) iterate(m int, odd bool) (src []float64, base, stride int) {
	switch {
	case s.xy != nil && odd:
		return s.xy, m, 2 * m
	case s.xy != nil:
		return s.xy, 0, 2 * m
	case odd:
		return s.b, 0, m
	default:
		return s.a, 0, m
	}
}

// init seeds the even iterate with rows [lo, hi) of the packed start
// block x0.
func (s *fbState) init(x0 []float64, m, lo, hi int) {
	dst, _, stride := s.iterate(m, false)
	if stride == m {
		copy(dst[lo*m:hi*m], x0[lo*m:hi*m])
		return
	}
	for i := lo; i < hi; i++ {
		for j := 0; j < m; j++ {
			dst[i*stride+j] = x0[i*m+j]
		}
	}
}

// accumulate adds c times rows [lo, hi) of the odd or even iterate to
// the combo block.
func (s *fbState) accumulate(cmb []float64, c float64, m int, odd bool, lo, hi int) {
	src, base, stride := s.iterate(m, odd)
	if stride == m {
		for i := lo * m; i < hi*m; i++ {
			cmb[i] += c * src[i]
		}
		return
	}
	for i := lo; i < hi; i++ {
		ci := cmb[i*m : i*m+m : i*m+m]
		si := src[base+i*stride : base+i*stride+m]
		for j := range ci {
			ci[j] += c * si[j]
		}
	}
}

// unpack copies the odd or even iterate of every vector into dst (one
// n-vector per vector of the run).
func (s *fbState) unpack(dst [][]float64, odd bool) {
	m := len(dst)
	src, base, stride := s.iterate(m, odd)
	for j, out := range dst {
		for i := range out {
			out[i] = src[base+i*stride+j]
		}
	}
}

// fbForwardBtBRange is the forward sweep over L with the BtB layout
// for rows [lo, hi) (Algorithm 2 lines 7-16): completes the next
// iterate in the odd slots from the previous one in the even slots,
// and unless last, leaves tmp = (L + D) * x_next for the backward
// sweep.
func fbForwardBtBRange(tri *sparse.Triangular, xy, tmp []float64, lo, hi int, last bool) {
	rp, ci, v := tri.L.RowPtr, tri.L.ColIdx, tri.L.Val
	d := tri.D
	if last {
		for i := lo; i < hi; i++ {
			sum0 := tmp[i] + d[i]*xy[2*i]
			for j := rp[i]; j < rp[i+1]; j++ {
				sum0 += v[j] * xy[2*ci[j]]
			}
			xy[2*i+1] = sum0
		}
		return
	}
	for i := lo; i < hi; i++ {
		sum0 := tmp[i] + d[i]*xy[2*i]
		sum1 := 0.0
		for j := rp[i]; j < rp[i+1]; j++ {
			c := 2 * ci[j]
			sum0 += v[j] * xy[c]
			sum1 += v[j] * xy[c+1]
		}
		xy[2*i+1] = sum0
		tmp[i] = sum1 + d[i]*sum0
	}
}

// fbBackwardBtBRange is the backward sweep over U (Algorithm 2 lines
// 19-28): completes the next iterate in the even slots from the odd
// slots, bottom-up, and unless last leaves tmp = U * x_next.
func fbBackwardBtBRange(tri *sparse.Triangular, xy, tmp []float64, lo, hi int, last bool) {
	rp, ci, v := tri.U.RowPtr, tri.U.ColIdx, tri.U.Val
	if last {
		for i := hi - 1; i >= lo; i-- {
			sum0 := tmp[i]
			for j := rp[i]; j < rp[i+1]; j++ {
				sum0 += v[j] * xy[2*ci[j]+1]
			}
			xy[2*i] = sum0
		}
		return
	}
	for i := hi - 1; i >= lo; i-- {
		sum0 := tmp[i]
		sum1 := 0.0
		for j := rp[i]; j < rp[i+1]; j++ {
			c := 2 * ci[j]
			sum0 += v[j] * xy[c+1]
			sum1 += v[j] * xy[c]
		}
		xy[2*i] = sum0
		tmp[i] = sum1
	}
}

// fbForwardSepRange is the forward sweep with separate vectors: xprev
// holds x_t, xnext receives x_{t+1}.
func fbForwardSepRange(tri *sparse.Triangular, xprev, xnext, tmp []float64, lo, hi int, last bool) {
	rp, ci, v := tri.L.RowPtr, tri.L.ColIdx, tri.L.Val
	d := tri.D
	if last {
		for i := lo; i < hi; i++ {
			sum0 := tmp[i] + d[i]*xprev[i]
			for j := rp[i]; j < rp[i+1]; j++ {
				sum0 += v[j] * xprev[ci[j]]
			}
			xnext[i] = sum0
		}
		return
	}
	for i := lo; i < hi; i++ {
		sum0 := tmp[i] + d[i]*xprev[i]
		sum1 := 0.0
		for j := rp[i]; j < rp[i+1]; j++ {
			c := ci[j]
			sum0 += v[j] * xprev[c]
			sum1 += v[j] * xnext[c]
		}
		xnext[i] = sum0
		tmp[i] = sum1 + d[i]*sum0
	}
}

// fbBackwardSepRange is the backward sweep with separate vectors:
// xprev holds x_t (the odd iterate), xnext receives x_{t+1}.
func fbBackwardSepRange(tri *sparse.Triangular, xnext, xprev, tmp []float64, lo, hi int, last bool) {
	rp, ci, v := tri.U.RowPtr, tri.U.ColIdx, tri.U.Val
	if last {
		for i := hi - 1; i >= lo; i-- {
			sum0 := tmp[i]
			for j := rp[i]; j < rp[i+1]; j++ {
				sum0 += v[j] * xprev[ci[j]]
			}
			xnext[i] = sum0
		}
		return
	}
	for i := hi - 1; i >= lo; i-- {
		sum0 := tmp[i]
		sum1 := 0.0
		for j := rp[i]; j < rp[i+1]; j++ {
			c := ci[j]
			sum0 += v[j] * xprev[c]
			sum1 += v[j] * xnext[c]
		}
		xnext[i] = sum0
		tmp[i] = sum1
	}
}
