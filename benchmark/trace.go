package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call from the harness into a layer. Times are
// nanoseconds since the repetition started; Parent is the ID of the span
// that caused this one (-1 for a root), and spans of one repetition share
// Rep.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Rep    int    `json:"rep"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how end-to-end repetitions run: the same harness code
// with the recorder absent.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	rep   int
	spans []span
}

func newTracer(rep int) *tracer { return &tracer{t0: time.Now(), rep: rep} }

// begin opens a span and returns its id; -1 when tracing is off.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Rep: t.rep, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// traceFile is the on-disk form of a traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeTrace(dir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	b, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
