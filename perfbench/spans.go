package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fbmpk"
)

// span is one timed call into a layer, recorded by the benchmark
// around a public function, or one phase the program reported in a
// request timeline. Start and End are offsets from the tracer's start.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how untraced runs call the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record stores a finished span and returns its ID (0 on a nil tracer).
func (t *tracer) record(name string, parent, req int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	return id
}

// phases records the phases of a program timeline as children of
// parent. The timeline's offsets are relative to anchor.
func (t *tracer) phases(parent, req int64, anchor time.Time, ps []fbmpk.RequestPhase) {
	for _, p := range ps {
		t.record(p.Name, parent, req, anchor.Add(p.Start), anchor.Add(p.End()))
	}
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, for every span whose name passes keep, its
// duration minus the part covered by its children whose names pass
// child.
func selfTimes(spans []span, keep, child func(string) bool) []time.Duration {
	kids := make(map[int64][]interval)
	for _, s := range spans {
		if s.Parent != 0 && child(s.Name) {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	var out []time.Duration
	for _, s := range spans {
		if keep(s.Name) {
			out = append(out, selfTime(interval{s.Start, s.End}, kids[s.ID]))
		}
	}
	return out
}

// durationsMS returns the durations in ms of the spans named name.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// write dumps the spans as JSON to path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
