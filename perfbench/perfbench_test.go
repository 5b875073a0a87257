package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"fbmpk"
)

func TestQuantileAndTail(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile([]float64{1, 2, posInf}, 1); !math.IsInf(got, 1) {
		t.Errorf("max with a failure = %v, want +Inf", got)
	}
	if got := quantile([]float64{1, 2, posInf}, 0.5); got != 2 {
		t.Errorf("median with a failure = %v, want 2", got)
	}
	// p95 leaves at least 10 samples beyond it from 200 samples on.
	if tailValid(199, 0.95) || !tailValid(200, 0.95) {
		t.Error("tailValid: p95 must need exactly 200 samples")
	}
}

func TestKnee(t *testing.T) {
	const limit = 100
	cases := []struct {
		name  string
		rungs []rung
		want  float64
		top   bool
	}{
		{"interpolated", []rung{{Rate: 10, P95: 20}, {Rate: 20, P95: 60}, {Rate: 30, P95: 140}}, 25, false},
		{"all pass", []rung{{Rate: 10, P95: 20}, {Rate: 20, P95: 60}}, 20, true},
		{"first fails", []rung{{Rate: 10, P95: 200}}, 5, false},
		{"errors, not latency", []rung{{Rate: 10, P95: 20}, {Rate: 20, P95: 30, ErrRatio: 0.05}}, 10, false},
		{"backlog grew", []rung{{Rate: 10, P95: 20}, {Rate: 20, P95: 30, BacklogGrew: true}}, 10, false},
	}
	for _, c := range cases {
		got, top := knee(c.rungs, limit)
		if math.Abs(got-c.want) > 1e-9 || top != c.top {
			t.Errorf("%s: knee = %v (top %v), want %v (top %v)", c.name, got, top, c.want, c.top)
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	parent := interval{0, 100 * ms}
	kids := []interval{
		{10 * ms, 30 * ms},
		{20 * ms, 40 * ms},   // overlaps the first: counted once
		{90 * ms, 120 * ms},  // clipped to the parent
		{150 * ms, 160 * ms}, // outside: ignored
	}
	if got, want := selfTime(parent, kids), 60*ms; got != want {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
	spans := []span{
		{ID: 1, Name: "serve.handler", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "registry.fingerprint", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "decode", Start: 0, End: 10 * ms},
		{ID: 4, Parent: 1, Name: "plan.execute", Start: 50 * ms, End: 80 * ms},
	}
	isLayer := func(n string) bool { return n != "decode" }
	got := selfTimes(spans, func(n string) bool { return n == "serve.handler" }, isLayer)
	if len(got) != 1 || got[0] != 40*ms {
		t.Errorf("selfTimes = %v, want [40ms]", got)
	}
}

// A server slower than the offered rate: latency must run from each
// request's due time, so the queue behind the stall shows, and
// requests still queued past the grace period count as unsent.
func TestOpenLoopDueTime(t *testing.T) {
	w := openLoop(100, 200*time.Millisecond, 50*time.Millisecond, 1, func(int) outcome {
		time.Sleep(30 * time.Millisecond)
		return outcome{OK: true}
	})
	if len(w.Outcomes) != 20 {
		t.Fatalf("%d requests, want 20", len(w.Outcomes))
	}
	var sent, unsent int
	for i, o := range w.Outcomes {
		if want := time.Duration(i) * 10 * time.Millisecond; o.Due != want {
			t.Fatalf("request %d due at %v, want %v", i, o.Due, want)
		}
		if o.Unsent {
			unsent++
			continue
		}
		sent++
		if o.Sent < o.Due || o.latency() < o.Done-o.Sent {
			t.Errorf("request %d: sent %v before due %v, or latency %v shorter than service", i, o.Sent, o.Due, o.latency())
		}
	}
	if unsent == 0 || sent < 5 {
		t.Errorf("sent %d, unsent %d: want some of each", sent, unsent)
	}
	last := w.Outcomes[sent-1]
	if last.Sent-last.Due < 50*time.Millisecond {
		t.Errorf("lateness of the last sent request %v, want the queue's wait", last.Sent-last.Due)
	}
	if w.BacklogMax < 5 {
		t.Errorf("backlog max %d, want the queue to build", w.BacklogMax)
	}
	s := summarize(w)
	if s.Failed != unsent || !math.IsInf(s.P95, 1) || math.IsInf(s.P95Censored, 1) {
		t.Errorf("summary %+v: unsent must fail, p95 +Inf, censored p95 finite", s)
	}
}

// A corrupted result must count as a failed, wrong operation, on the
// library path and on the serving path.
func TestCorruptedResultCounted(t *testing.T) {
	a, err := fbmpk.GenerateSuiteMatrix("cant", 0.002, 1)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := libOps(a, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	p, err := fbmpk.NewPlan(a, fbmpk.WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var ss []libSample
	for _, op := range ops {
		got, err := op.call(context.Background(), p)
		if !verifyLib(op, got, err) {
			t.Fatalf("%s: correct result rejected", op.name)
		}
		got[0][len(got[0])/2] *= 1 + 1e-6
		ss = append(ss, libSample{ok: verifyLib(op, got, nil)})
	}
	if s, _ := libSummary(ss, time.Second); s.Failed != len(ops) || s.Wrong != len(ops) {
		t.Errorf("library: %d failed, %d wrong of %d corrupted", s.Failed, s.Wrong, len(ops))
	}

	w := serveWorkload{mats: []matSpec{{"cant", 0.002}}, variants: 2}
	slots, err := serveInputs(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := serveSetup(slots, daemonConfig(0, false), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.d.stop()
	if err := r.calibrate(); err != nil {
		t.Fatal(err)
	}
	s := slots[0]
	if o := r.doOp(s, 0, true, false); !o.OK {
		t.Fatalf("serving: correct full result rejected: %+v", o)
	}
	// Corrupt the reference of a full result and the expected checksum
	// of a checksum-only one.
	s.refs[s.cur][0][3] += 1
	r.check.set(s.keys[s.cur], 1, "0000000000000000")
	outs := []outcome{r.doOp(s, 0, true, false), r.doOp(s, 1, false, false), r.doOp(s, 2, false, false)}
	sum := summarize(window{Outcomes: outs, Elapsed: time.Second})
	if sum.Failed != 2 || sum.Wrong != 2 {
		t.Errorf("serving: %d failed, %d wrong; want the 2 corrupted counted", sum.Failed, sum.Wrong)
	}
}

// Every seed offers the same mix: each block of the deck holds the
// same requests, only their order changes.
func TestSequenceMixIsSeedIndependent(t *testing.T) {
	count := func(seq []reqSpec) map[reqSpec]int {
		m := map[reqSpec]int{}
		for _, r := range seq {
			r.Op, r.Full = 0, false // the op cycle runs over the shuffled order
			m[r]++
		}
		return m
	}
	a, b := sequence(2*deck, 8, 8, 1), sequence(2*deck, 8, 8, 2)
	ca, cb := count(a[:deck]), count(b[:deck])
	if len(ca) != len(cb) {
		t.Fatalf("mixes differ: %v vs %v", ca, cb)
	}
	for k, v := range ca {
		if cb[k] != v {
			t.Errorf("%+v: %d vs %d", k, v, cb[k])
		}
	}
	if ca[reqSpec{Slot: 0}] <= ca[reqSpec{Slot: 7}] {
		t.Errorf("slot 0 drawn %d times, slot 7 %d: want a skew", ca[reqSpec{Slot: 0}], ca[reqSpec{Slot: 7}])
	}
	updates, full := 0, 0
	for _, r := range a {
		if r.Update {
			updates++
		}
		if r.Full {
			full++
		}
	}
	if updates != 2*deck/8 || full != (2*deck-updates)/16 {
		t.Errorf("%d updates and %d full results in %d requests", updates, full, 2*deck)
	}
}

// BENCHMARK.json and the benchmark must agree on every metric and unit.
func TestBenchmarkJSONMatchesUnits(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		seen[m.Name] = true
		if units[m.Name] != m.Unit {
			t.Errorf("%s: BENCHMARK.json unit %q, benchmark prints %q", m.Name, m.Unit, units[m.Name])
		}
	}
	for n := range units {
		if !seen[n] {
			t.Errorf("%s is printed but not in BENCHMARK.json", n)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the benchmark prints %d", len(spec.EndToEnd), len(endToEnd))
	}
}
