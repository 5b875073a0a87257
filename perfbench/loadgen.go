package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is the record of one scheduled request. Times are offsets
// from the start of its load window; latency runs from Due, the time
// the request was scheduled to be sent, so a stall that delays later
// sends counts against them.
type outcome struct {
	Due, Sent, Done time.Duration
	Unsent          bool // still queued when the drain deadline passed
	OK              bool // answered 200 with a verified result
	Wrong           bool // answered, but the result failed verification
	Status          int  // HTTP status; 0 for transport errors and unsent requests
	SpMVs           int  // SpMV-equivalents of the operation (0 for updates)
	NNZ             int  // nonzeros of the matrix it ran on
	Update          bool // a value update rather than an operation
	TraceID         string
}

func (o outcome) latency() time.Duration { return o.Done - o.Due }

// window is what one open-loop window produced.
type window struct {
	Outcomes   []outcome
	Elapsed    time.Duration // from the first due time to the last completion
	BacklogMax int           // most requests due but not yet sent at any release
	// BacklogGrew reports that the queue of unsent requests grew over
	// the second half of the window by more than the requests one
	// latency limit's worth of time brings in.
	BacklogGrew bool
}

// openLoop offers requests 0, 1, ... at rate per second for dur:
// request i is due i/rate after the start, whether or not earlier
// requests have completed. workers goroutines send them, each waiting
// for its response, so at most workers requests are in flight and the
// rest queue in the generator. Requests still queued grace after the
// window closed are abandoned and recorded as unsent, with the time
// they had waited. issue performs request i and fills in the outcome's
// result fields; openLoop stamps the times.
func openLoop(rate float64, dur, grace time.Duration, workers int, issue func(i int) outcome) window {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	out := make([]outcome, n)
	jobs := make(chan int, n) // sized to every send: the dispatcher never blocks
	var started atomic.Int64
	start := time.Now()
	deadline := dur + grace

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				started.Add(1)
				if time.Since(start) > deadline {
					out[i].Unsent = true
					out[i].Done = time.Since(start)
					continue
				}
				sent := time.Since(start)
				o := issue(i)
				o.Due, o.Sent, o.Done = out[i].Due, sent, time.Since(start)
				out[i] = o
			}
		}()
	}

	var backlogMax, mid, end int
	for i := 0; i < n; i++ {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		out[i].Due = due
		if d := due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		jobs <- i
		b := i + 1 - int(started.Load())
		if b > backlogMax {
			backlogMax = b
		}
		if i == n/2 {
			mid = b
		}
		end = b
	}
	close(jobs)
	wg.Wait()
	w := window{Outcomes: out, BacklogMax: backlogMax, BacklogGrew: float64(end-mid) > math.Max(float64(workers), rate*latencyLimitMS/1000)}
	for _, o := range out {
		if o.Done > w.Elapsed {
			w.Elapsed = o.Done
		}
	}
	return w
}

// summary condenses a window's outcomes.
type summary struct {
	Attempted, Failed, Wrong int
	Shed, Deadline           int     // 429 and 504 answers
	P50, P95                 float64 // ms; failed requests count as never answered (+Inf)
	P95Censored              float64 // ms; failed requests count at the time they had waited
	LatenessP95              float64 // ms from due to send, over sent requests
	OpsPerS                  float64 // verified operations per second of the window
	SpMVNNZ                  float64 // sum of SpMV-equivalents x nnz over verified operations
}

func summarize(w window) summary {
	var s summary
	lat := make([]float64, 0, len(w.Outcomes))
	cens := make([]float64, 0, len(w.Outcomes))
	late := make([]float64, 0, len(w.Outcomes))
	ok := 0
	for _, o := range w.Outcomes {
		s.Attempted++
		l := ms(o.latency())
		cens = append(cens, l)
		if !o.Unsent {
			late = append(late, ms(o.Sent-o.Due))
		}
		switch {
		case o.OK:
			lat = append(lat, l)
			if !o.Update {
				ok++
				s.SpMVNNZ += float64(o.SpMVs) * float64(o.NNZ)
			}
			continue
		case o.Wrong:
			s.Wrong++
		case o.Status == 429:
			s.Shed++
		case o.Status == 504:
			s.Deadline++
		}
		s.Failed++
		lat = append(lat, posInf)
	}
	s.P50, s.P95 = quantile(lat, 0.5), quantile(lat, 0.95)
	s.P95Censored = quantile(cens, 0.95)
	if len(late) > 0 {
		s.LatenessP95 = quantile(late, 0.95)
	}
	if w.Elapsed > 0 {
		s.OpsPerS = float64(ok) / w.Elapsed.Seconds()
	}
	return s
}

func (s summary) errRatio() float64 {
	if s.Attempted == 0 {
		return 0
	}
	return float64(s.Failed) / float64(s.Attempted)
}

// toRung turns a ladder window into the rung the knee is computed on.
func toRung(rate float64, w window) rung {
	s := summarize(w)
	return rung{Rate: rate, P95: s.P95Censored, ErrRatio: s.errRatio(),
		BacklogGrew: w.BacklogGrew, Samples: s.Attempted}
}
