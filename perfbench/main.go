// Command perfbench is the repository benchmark. It runs one workload
// for a fixed time, checks every result against a serial reference,
// and prints the workload's metrics as one JSON object on the last
// line of standard output: the end-to-end metrics by default, the
// per-layer metrics with --trace 1. A human-readable report, the run's
// conditions and any flags raised against them go to standard error.
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 45 --trace 0
//
// Workloads (see METRICS.md for every metric):
//
//	lib-large    library calls, closed loop, on two matrices past L2
//	serve-hot    in-process daemon, open loop, one resident matrix
//	serve-churn  in-process daemon, open loop, eight matrices over a
//	             four-plan registry, one request in eight a value update
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// buildDir holds build products, stored conditions and span dumps,
// relative to the directory the benchmark runs in.
const buildDir = ".bench_build"

// setupReps is how many times set-up is repeated; setup_s is the median.
const setupReps = 9

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// units of every metric the benchmark prints.
var units = map[string]string{
	"setup_s": "s", "op_ms_p50": "ms", "ops_per_s": "ops/s",
	"gnnz_per_s": "1e9/s", "mem_mib": "MiB",

	"sparse.spmv_ns_per_nnz":       "ns/nnz",
	"cachesim.dram_bytes_per_spmv": "bytes",
	"core.mpk_ms":                  "ms", "core.sspmv_ms": "ms", "core.mpkmulti_ms": "ms", "core.symgs_ms": "ms",
	"core.mpk_serial_ms": "ms", "core.mpk_speedup": "ratio",
	"core.reads_of_a_per_spmv": "ratio",
	"core.build_ms":            "ms", "core.reorder_ms": "ms", "core.split_ms": "ms", "core.tune_ms": "ms",
	"core.update_ms": "ms", "core.admission_wait_ms": "ms",
	"core.auto_verdict_agreement": "ratio", "core.level_blocks": "count",
	"parallel.wait_share": "ratio", "parallel.wait_ms_per_op": "ms",
	"reorder.abmc_ms": "ms", "reorder.rcm_ms": "ms", "reorder.levels_ms": "ms",
	"registry.fingerprint_ms": "ms", "registry.hit_ms": "ms", "registry.hit_over_mpk": "ratio",
	"registry.miss_ms": "ms", "registry.update_ms": "ms",
	"registry.hit_ratio": "ratio", "registry.builds_per_kop": "count", "registry.evictions_per_kop": "count",
	"mmio.read_ms_per_mb": "ms/MiB",
	"serve.handler_ms":    "ms", "serve.self_ms": "ms", "serve.http_ms": "ms",
	"serve.shed_ratio": "ratio", "serve.deadline_ratio": "ratio",
	"loadgen.lateness_ms_p95": "ms", "loadgen.backlog_max": "count",
	"trace.overhead_ms": "ms",
}

// endToEnd lists the metrics an untraced run prints. The p95 latency
// and the serving knee go to standard error only: on a 2-vCPU host
// shared with other tenants their spreads across seeds came near or
// past any usable regression bound.
var endToEnd = []string{"setup_s", "op_ms_p50", "ops_per_s", "gnnz_per_s", "mem_mib"}

// opts are the command-line settings of one run.
type opts struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

func main() {
	var o opts
	var trace int
	flag.StringVar(&o.workload, "workload", "", "lib-large | serve-hot | serve-churn")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: wrong results")
		os.Exit(1)
	}
}

// report collects a run's numbers before they become the result.
type report struct {
	vals      map[string]float64
	attempted int
	failed    int
	wrong     int
	cond      conditions
	notes     []string
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func run(o opts) (*result, error) {
	rep := &report{vals: map[string]float64{}}
	rep.cond = conditions{Workload: o.workload, Host: probeHost(o.seed)}
	steal := startSteal()
	var err error
	switch o.workload {
	case "lib-large":
		err = runLib(o, rep)
	case "serve-hot", "serve-churn":
		err = runServe(o, rep)
	default:
		return nil, fmt.Errorf("unknown workload %q (want lib-large, serve-hot or serve-churn)", o.workload)
	}
	if err != nil {
		return nil, err
	}
	rep.cond.StealShare = steal.share()
	rep.cond.flag(buildDir)
	return rep.finish(o)
}

// finish prints the report to standard error and builds the result
// from the metrics this kind of run prints.
func (r *report) finish(o opts) (*result, error) {
	b, _ := json.Marshal(r.cond) // plain structs: cannot fail
	fmt.Fprintf(os.Stderr, "conditions: %s\n", b)
	for _, f := range r.cond.Flags {
		fmt.Fprintln(os.Stderr, "FLAG:", f)
	}
	for _, n := range r.notes {
		fmt.Fprintln(os.Stderr, n)
	}
	names := endToEnd
	if o.trace {
		names = nil
		for n := range units {
			if !contains(endToEnd, n) {
				names = append(names, n)
			}
		}
		sort.Strings(names)
	}
	res := &result{Correct: r.wrong == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metric{}}
	for _, n := range names {
		v, ok := r.vals[n]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", n, v)
		}
		res.Metrics[n] = metric{Value: v, Unit: units[n]}
		fmt.Fprintf(os.Stderr, "%-30s %14.6g %s\n", n, v, units[n])
	}
	if r.attempted > 0 {
		fmt.Fprintf(os.Stderr, "%-30s %14.6g ratio (%d of %d failed, %d wrong)\n", "error_ratio",
			float64(r.failed)/float64(r.attempted), r.failed, r.attempted, r.wrong)
	}
	if r.attempted == 0 {
		return nil, fmt.Errorf("no operations attempted")
	}
	return res, nil
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// memSampler records the peak live Go heap (as marked by the last
// garbage collection) while it runs; unlike the heap's current size it
// does not swing with the collector's timing.
type memSampler struct {
	stop, done chan struct{}
	peak       uint64
}

const heapMetric = "/gc/heap/live:bytes"

// startMem collects garbage left by set-up, then starts sampling.
func startMem() *memSampler {
	runtime.GC()
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		s := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > m.peak {
				m.peak = v
			}
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// peakMiB stops the sampler and returns the peak in MiB.
func (m *memSampler) peakMiB() float64 {
	close(m.stop)
	<-m.done
	return float64(m.peak) / (1 << 20)
}

// capP95 turns a p95 that failed requests pushed to +Inf into the
// request deadline, the least such a request could have taken.
func capP95(v float64) float64 {
	if math.IsInf(v, 1) {
		return ms(reqTimeout)
	}
	return v
}

// spanFile is where a traced run writes its spans.
func spanFile(o opts) string {
	return filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
}

// writeSpans dumps the spans and notes where they went.
func writeSpans(o opts, tr *tracer, rep *report) {
	if err := tr.write(spanFile(o)); err != nil {
		rep.note("spans: not written: %v", err)
		return
	}
	rep.note("spans: %d written to %s", len(tr.snapshot()), spanFile(o))
}

// meanPhaseMS returns the mean duration in ms of the spans named name
// over n requests (0 when n is 0).
func meanPhaseMS(spans []span, name string, n int) float64 {
	if n == 0 {
		return 0
	}
	var sum float64
	for _, d := range durationsMS(spans, name) {
		sum += d
	}
	return sum / float64(n)
}
