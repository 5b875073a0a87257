package main

import (
	"math"
	"sort"
	"time"
)

var posInf = math.Inf(1)

// minTail is the number of samples a reported percentile must leave
// beyond it: p95 is valid from 200 samples on.
const minTail = 10

// quantile returns the q-quantile of xs (0 <= q <= 1) by linear
// interpolation between order statistics. xs need not be sorted; +Inf
// entries (failed requests) sort last. It returns NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailValid reports whether n samples leave at least minTail samples
// beyond the q-quantile.
func tailValid(n int, q float64) bool {
	return float64(n)*(1-q) >= minTail
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rung is one step of the offered-rate ladder: the offered rate, the
// p95 latency with failed and unsent requests counted at the time they
// had waited, the share of failed requests, and whether the queue of
// unsent requests kept growing.
type rung struct {
	Rate        float64 `json:"rate"`
	P95         float64 `json:"p95_ms"`
	ErrRatio    float64 `json:"error_ratio"`
	BacklogGrew bool    `json:"backlog_grew"`
	Samples     int     `json:"samples"`
}

// passes reports whether the rung meets the latency limit, the 1%
// error budget and the no-growing-backlog condition.
func (r rung) passes(limitMS float64) bool {
	return r.P95 <= limitMS && r.ErrRatio <= 0.01 && !r.BacklogGrew
}

// knee returns the highest offered rate that meets the limit,
// interpolated linearly in p95 between the last passing rung and the
// first failing one. Rungs must be in increasing rate order. When the
// first rung already fails, the rate is scaled down by limit/p95; when
// no rung fails, the top rate is returned and top is true.
func knee(rungs []rung, limitMS float64) (q float64, top bool) {
	for i, r := range rungs {
		if r.passes(limitMS) {
			continue
		}
		if i == 0 {
			if r.P95 > limitMS {
				return r.Rate * limitMS / r.P95, false
			}
			return r.Rate / 2, false
		}
		lo := rungs[i-1]
		if r.P95 <= limitMS || r.P95 <= lo.P95 {
			// Failed on errors or backlog, not on latency: nothing to
			// interpolate on.
			return lo.Rate, false
		}
		f := (limitMS - lo.P95) / (r.P95 - lo.P95)
		return lo.Rate + math.Min(1, math.Max(0, f))*(r.Rate-lo.Rate), false
	}
	if len(rungs) == 0 {
		return 0, false
	}
	return rungs[len(rungs)-1].Rate, true
}

// interval is a half-open time range [lo, hi).
type interval struct{ lo, hi time.Duration }

// selfTime returns the part of parent not covered by any of children,
// each clipped to parent. Overlapping children count once.
func selfTime(parent interval, children []interval) time.Duration {
	var cs []interval
	for _, c := range children {
		if c.lo < parent.lo {
			c.lo = parent.lo
		}
		if c.hi > parent.hi {
			c.hi = parent.hi
		}
		if c.hi > c.lo {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].lo < cs[j].lo })
	var covered time.Duration
	var cur interval
	for i, c := range cs {
		if i == 0 || c.lo > cur.hi {
			covered += cur.hi - cur.lo
			cur = c
			continue
		}
		if c.hi > cur.hi {
			cur.hi = c.hi
		}
	}
	covered += cur.hi - cur.lo
	return parent.hi - parent.lo - covered
}
