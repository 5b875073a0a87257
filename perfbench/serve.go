package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"fbmpk"
	"fbmpk/internal/serve"
)

// reqTimeout is the deadline every operation request carries.
const reqTimeout = 2 * time.Second

// opSpec is one operation a workload issues, with its parameters.
type opSpec struct {
	Name   string // wire op: mpk, sspmv, solve
	K      int
	Coeffs []float64
	Sweeps int
}

// spmvs is the operation's SpMV-equivalents as the plan counts them
// (a symmetric Gauss-Seidel sweep reads A twice).
func (o opSpec) spmvs() int {
	switch o.Name {
	case "sspmv":
		return len(o.Coeffs) - 1
	case "solve":
		return 2 * o.Sweeps
	}
	return o.K
}

// polyCoeffs returns the k+1 coefficients 1, 1/2, ..., 1/(k+1).
func polyCoeffs(k int) []float64 {
	c := make([]float64, k+1)
	for i := range c {
		c[i] = 1 / float64(i+1)
	}
	return c
}

// slot is one resident matrix of a serving workload. Each value
// variant has the same structure; value updates cycle through them.
type slot struct {
	name   string
	vars   []*fbmpk.Matrix
	bodies [][]byte // MatrixMarket body per variant; nil to upload by generator spec
	spec   serve.GeneratorSpec
	refs   [][][]float64 // [variant][op] reference result

	mu   sync.RWMutex // held for reading by operations, for writing by updates
	cur  int
	keys []string // key per variant, learned from the daemon
}

// daemon is fbmpkd in process: the serve Handler on a loopback listener.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan struct{}
}

func startDaemon(cfg serve.Config, conns int) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{srv: serve.New(cfg), base: "http://" + ln.Addr().String(), served: make(chan struct{})}
	d.hs = serve.NewHTTPServer(d.srv.Handler())
	d.client = &http.Client{Timeout: 10 * reqTimeout, Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	return d, nil
}

func (d *daemon) stop() {
	_ = serve.Shutdown(d.hs, 5*time.Second) // a forced close is fine at the end of a run
	<-d.served
	d.client.CloseIdleConnections()
	d.srv.Close()
}

// post sends one request and reads the whole response.
func (d *daemon) post(path, ctype string, body []byte) (int, []byte, error) {
	resp, err := d.client.Post(d.base+path, ctype, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// serveCheck holds the expected checksum of every (key, op). The key
// is the content fingerprint of the matrix values, so one checksum per
// (key, op) must hold across every epoch that serves those values.
type serveCheck struct {
	mu  sync.Mutex
	sum map[string]string
}

func (c *serveCheck) expect(key string, op int) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.sum[fmt.Sprint(key, "|", op)]
	return s, ok
}

func (c *serveCheck) set(key string, op int, sum string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sum[fmt.Sprint(key, "|", op)] = sum
}

// serveRun is a serving workload's state against one daemon.
type serveRun struct {
	d     *daemon
	slots []*slot
	ops   []opSpec
	check *serveCheck
}

func (r *serveRun) opBody(s *slot, key string, op int, full bool) []byte {
	o := r.ops[op]
	req := serve.OpRequest{Matrix: key, K: o.K, Coeffs: o.Coeffs, Sweeps: o.Sweeps,
		TimeoutMS: float64(reqTimeout / time.Millisecond), Return: serve.ReturnChecksum}
	if full {
		req.Return = serve.ReturnFull
	}
	b, _ := json.Marshal(req) // plain struct: cannot fail
	return b
}

// verifyOp checks an operation response: a full result against the
// reference, and its checksum against the one expected for (key, op).
// learn records the checksum of a verified full result when none is
// expected yet.
func (r *serveRun) verifyOp(s *slot, v int, key string, op int, full, learn bool, body []byte) (traceID string, ok bool) {
	var resp serve.OpResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return "", false
	}
	sum := resp.Checksum
	if full {
		if relErr(resp.Result, s.refs[v][op]) > relTol {
			return resp.TraceID, false
		}
		sum = serve.Checksum(resp.Result)
	}
	want, known := r.check.expect(key, op)
	if !known {
		if !learn || !full {
			return resp.TraceID, false
		}
		r.check.set(key, op, sum)
		return resp.TraceID, true
	}
	return resp.TraceID, sum == want
}

// doOp issues one operation against the slot's current values.
func (r *serveRun) doOp(s *slot, op int, full, learn bool) outcome {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v := s.cur
	key := s.keys[v]
	o := outcome{SpMVs: r.ops[op].spmvs(), NNZ: len(s.vars[v].Val)}
	status, body, err := r.d.post("/v1/"+r.ops[op].Name, "application/json", r.opBody(s, key, op, full))
	o.Status = status
	if err != nil || status != http.StatusOK {
		return o
	}
	var ok bool
	o.TraceID, ok = r.verifyOp(s, v, key, op, full, learn, body)
	o.OK, o.Wrong = ok, !ok
	return o
}

// doUpdate moves the slot to its next value variant. The new key must
// match the one the variant had before, when it had one.
func (r *serveRun) doUpdate(s *slot) outcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	nv := (s.cur + 1) % len(s.vars)
	o := outcome{Update: true}
	status, body, err := r.d.post("/v1/matrix/"+s.keys[s.cur]+"/values", "text/plain", s.bodies[nv])
	o.Status = status
	if err != nil || status != http.StatusOK {
		return o
	}
	var resp serve.UpdateResponse
	if json.Unmarshal(body, &resp) != nil || resp.OldKey != s.keys[s.cur] ||
		(s.keys[nv] != "" && resp.Key != s.keys[nv]) {
		o.Wrong = true
		return o
	}
	s.keys[nv], s.cur = resp.Key, nv
	o.OK = true
	return o
}

// upload puts the slot's first variant on the daemon and records its key.
func (r *serveRun) upload(s *slot) error {
	ctype, body := "text/plain", s.bodies
	var b []byte
	if body == nil {
		ctype = "application/json"
		b, _ = json.Marshal(s.spec) // plain struct: cannot fail
	} else {
		b = body[0]
	}
	status, resp, err := r.d.post("/v1/matrix", ctype, b)
	if err != nil {
		return fmt.Errorf("upload %s: %w", s.name, err)
	}
	var up serve.UploadResponse
	if status != http.StatusOK || json.Unmarshal(resp, &up) != nil {
		return fmt.Errorf("upload %s: status %d: %s", s.name, status, strings.TrimSpace(string(resp)))
	}
	s.mu.Lock()
	s.keys = make([]string, len(s.vars))
	s.keys[0], s.cur = up.Key, 0
	s.mu.Unlock()
	return nil
}

// calibrate learns the expected checksum of every (variant, op) from
// full results verified against the references, stepping each slot
// through all its value variants.
func (r *serveRun) calibrate() error {
	for _, s := range r.slots {
		for v := range s.vars {
			if v > 0 {
				if o := r.doUpdate(s); !o.OK {
					return fmt.Errorf("calibrate %s: update to variant %d failed (status %d)", s.name, v, o.Status)
				}
			}
			for op := range r.ops {
				if o := r.doOp(s, op, true, true); !o.OK {
					return fmt.Errorf("calibrate %s: %s on variant %d: status %d, wrong %v",
						s.name, r.ops[op].Name, v, o.Status, o.Wrong)
				}
			}
		}
	}
	return nil
}

// reqSpec is one request of a serving workload's seeded sequence.
type reqSpec struct {
	Slot   int
	Op     int
	Update bool
	Full   bool // ask for the whole result, checked against the reference
}

// opMix is the deterministic 3:1:1 mpk:sspmv:solve cycle, as indexes
// into the workload's op list.
var opMix = []int{0, 0, 0, 1, 2}

// deck is how many requests one shuffled block of a sequence holds.
const deck = 64

// sequence returns n requests built from seeded shuffles of a fixed
// deck of 64, so every seed offers the same mix in a different order.
// With updateEvery > 0, the deck holds 64/updateEvery value updates
// spread evenly over the slots; its operations go to the slots in
// proportion to a Zipf law (weight 1/(rank+1)^1.1, skewed). Operations
// follow the opMix cycle, and every 16th asks for its full result.
func sequence(n, slots, updateEvery int, seed uint64) []reqSpec {
	var block []reqSpec
	nops := deck
	if updateEvery > 0 {
		nops -= deck / updateEvery
		for i := 0; i < deck/updateEvery; i++ {
			block = append(block, reqSpec{Slot: i % slots, Update: true})
		}
	}
	var wsum float64
	for s := 0; s < slots; s++ {
		wsum += math.Pow(float64(s+1), -1.1)
	}
	for s := 0; s < slots && len(block) < deck; s++ {
		c := int(math.Round(float64(nops) * math.Pow(float64(s+1), -1.1) / wsum))
		for j := 0; j < c && len(block) < deck; j++ {
			block = append(block, reqSpec{Slot: s})
		}
	}
	for len(block) < deck {
		block = append(block, reqSpec{})
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	out := make([]reqSpec, 0, n)
	ops := 0
	for len(out) < n {
		rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		for _, r := range block {
			if len(out) == n {
				break
			}
			if !r.Update {
				r.Op = opMix[ops%len(opMix)]
				r.Full = ops%16 == 15
				ops++
			}
			out = append(out, r)
		}
	}
	return out
}

func (r *serveRun) issue(seq []reqSpec) func(i int) outcome {
	return func(i int) outcome {
		q := seq[i%len(seq)]
		s := r.slots[q.Slot]
		if q.Update {
			return r.doUpdate(s)
		}
		return r.doOp(s, q.Op, q.Full, false)
	}
}

// flight fetches the daemon's retained request timelines by trace ID.
func (d *daemon) flight() (map[string]serve.FlightEntry, error) {
	resp, err := d.client.Get(d.base + "/v1/debug/requests")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var dr serve.DebugRequestsResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		return nil, fmt.Errorf("decode /v1/debug/requests: %w", err)
	}
	out := make(map[string]serve.FlightEntry, len(dr.Slowest)+len(dr.RecentErrors))
	for _, e := range append(dr.Slowest, dr.RecentErrors...) {
		out[e.TraceID] = e
	}
	return out, nil
}

// handlerReplay replays operation requests in process through the
// daemon's Handler, one at a time, recording a serve.handler span per
// request with the program's phases (from the flight recorder) as its
// children.
func (r *serveRun) handlerReplay(tr *tracer, seq []reqSpec, n int) error {
	h := r.d.srv.Handler()
	ids := map[string]int64{}
	var order []string
	for i, q := range seq {
		if len(order) == n {
			break
		}
		if q.Update {
			continue
		}
		s := r.slots[q.Slot]
		s.mu.RLock()
		v, key := s.cur, s.keys[s.cur]
		s.mu.RUnlock()
		req, err := http.NewRequestWithContext(context.Background(), http.MethodPost,
			"/v1/"+r.ops[q.Op].Name, bytes.NewReader(r.opBody(s, key, q.Op, false)))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		end := time.Now()
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler replay %s: status %d", r.ops[q.Op].Name, rec.Code)
		}
		tid, ok := r.verifyOp(s, v, key, q.Op, false, false, rec.Body.Bytes())
		if !ok {
			return fmt.Errorf("handler replay %s on %s: wrong result", r.ops[q.Op].Name, s.name)
		}
		ids[tid] = tr.record("serve.handler", 0, int64(i), start, end)
		order = append(order, tid)
	}
	fl, err := r.d.flight()
	if err != nil {
		return err
	}
	for _, tid := range order {
		if e, ok := fl[tid]; ok {
			tr.phases(ids[tid], 0, e.Start, e.Phases)
		}
	}
	return nil
}
