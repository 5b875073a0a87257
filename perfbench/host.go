package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"fbmpk"
)

// host records the conditions a run ran under.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Threads    int    `json:"threads"` // probe-plan threads and load connections: nproc clamped to GOMAXPROCS
	L2Bytes    int64  `json:"l2_bytes"`
	L3Bytes    int64  `json:"l3_bytes"`
	GoVersion  string `json:"go_version"`
	Seed       uint64 `json:"seed"`
}

func probeHost(seed uint64) host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Seed: seed}
	h.Threads = h.NProc
	if h.GOMAXPROCS < h.Threads {
		h.Threads = h.GOMAXPROCS
	}
	h.L2Bytes, h.L3Bytes = cacheSize(2), cacheSize(3)
	return h
}

// cacheSize reads the size of cpu0's unified or data cache at level
// from sysfs; 0 when it cannot be read.
func cacheSize(level int) int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		if readTrim(filepath.Join(d, "level")) != strconv.Itoa(level) {
			continue
		}
		if t := readTrim(filepath.Join(d, "type")); t != "Unified" && t != "Data" {
			continue
		}
		return parseSize(readTrim(filepath.Join(d, "size")))
	}
	return 0
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// parseSize parses a sysfs cache size such as "2048K" or "300M".
func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return v * mult
}

// cpuTicks returns the host's cumulative steal ticks and all ticks from
// /proc/stat; zeros when it cannot be read.
func cpuTicks() (steal, total uint64) {
	line, _, _ := strings.Cut(readTrim("/proc/stat"), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user .. steal; guest time is already inside user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// stealMeter measures the share of CPU time the hypervisor gave to
// other tenants during a run.
type stealMeter struct{ steal, total uint64 }

func startSteal() stealMeter {
	s, t := cpuTicks()
	return stealMeter{s, t}
}

func (m stealMeter) share() float64 {
	s, t := cpuTicks()
	if t <= m.total {
		return 0
	}
	return float64(s-m.steal) / float64(t-m.total)
}

// planCond is the configuration and size of one plan a workload runs.
type planCond struct {
	Matrix    string  `json:"matrix"`
	Rows      int     `json:"rows"`
	NNZ       int     `json:"nnz"`
	WSBytes   int64   `json:"ws_bytes"` // CSR arrays plus three n-vectors
	WSOverL2  float64 `json:"ws_over_l2"`
	Engine    string  `json:"engine"`
	Backend   string  `json:"backend"`
	Workers   int     `json:"workers"`
	Colors    int     `json:"colors"`
	LevelBlks int     `json:"level_blocks"`
}

// workingSet is the bytes an operation streams per pass: the CSR
// arrays and three n-vectors.
func workingSet(a *fbmpk.Matrix) int64 {
	return int64(len(a.RowPtr))*8 + int64(len(a.ColIdx))*4 + int64(len(a.Val))*8 + 3*int64(a.Rows)*8
}

func describePlan(name string, a *fbmpk.Matrix, p *fbmpk.Plan, l2 int64) planCond {
	st := p.Stats()
	c := planCond{Matrix: name, Rows: a.Rows, NNZ: len(a.Val), WSBytes: workingSet(a),
		Engine: p.Engine().String(), Backend: st.Backend, Workers: p.Workers(), Colors: st.NumColors}
	if p.Engine() == fbmpk.EngineLevelBlocked {
		c.LevelBlks = st.NumBlocks
	}
	if l2 > 0 {
		c.WSOverL2 = float64(c.WSBytes) / float64(l2)
	}
	return c
}

// conditions is everything a run records about how it ran, and the
// flags raised against it. It is printed to standard error and kept
// per workload in the build directory so later runs can compare.
type conditions struct {
	Workload string     `json:"workload"`
	Host     host       `json:"host"`
	Plans    []planCond `json:"plans"`
	// StealShare is the share of CPU time stolen by other tenants of
	// the host during the run.
	StealShare float64  `json:"steal_share"`
	Flags      []string `json:"flags,omitempty"`
}

// flag raises the warnings a run's conditions call for: CPU stolen by
// other tenants, a working set under 4x L2 (serve-churn's matrices are
// near L2 by design), and a plan whose
// configuration differs from the first recorded run of the workload.
// The first run's conditions are stored in dir.
func (c *conditions) flag(dir string) {
	if c.StealShare > 0.05 {
		c.Flags = append(c.Flags, fmt.Sprintf("other tenants stole %.0f%% of the CPU during the run", 100*c.StealShare))
	}
	for _, p := range c.Plans {
		if c.Host.L2Bytes > 0 && p.WSOverL2 < 4 {
			c.Flags = append(c.Flags, fmt.Sprintf("%s: working set %.1fx L2 < 4x", p.Matrix, p.WSOverL2))
		}
	}
	path := filepath.Join(dir, "conditions-"+c.Workload+".json")
	b, err := os.ReadFile(path)
	if err != nil {
		if err := os.MkdirAll(dir, 0o755); err == nil {
			if b, err := json.Marshal(c); err == nil {
				_ = os.WriteFile(path, b, 0o644) // best effort: only later runs compare against it
			}
		}
		return
	}
	var first conditions
	if json.Unmarshal(b, &first) != nil {
		return
	}
	cfg := func(p planCond) string {
		return fmt.Sprintf("%s engine=%s backend=%s workers=%d level_blocks=%d",
			p.Matrix, p.Engine, p.Backend, p.Workers, p.LevelBlks)
	}
	for i, p := range c.Plans {
		if i < len(first.Plans) && cfg(first.Plans[i]) != cfg(p) {
			c.Flags = append(c.Flags, "plan differs from first run: "+cfg(first.Plans[i])+" -> "+cfg(p))
		}
	}
}
