package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its own call into a public function or inside its own
// Execute callback. Times are nanoseconds since the tracer was made.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the span that caused this one; -1 for a rep
	Task   int64  `json:"task"`   // spans of one task share its id; -1 when not about a task
}

// maxSpans bounds the trace's memory and the file it becomes, and
// maxRepTaskSpans how many spans about single tasks one rep may add, so
// that every traced rep is in the file; spans past either are counted,
// not kept.
const (
	maxSpans        = 60000
	maxRepTaskSpans = 6000
)

// tracer keeps a traced run's spans in memory until the run ends.
type tracer struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	dropped int64
	root    int // the current rep's span
	repTask int // spans about single tasks the current rep has added
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), root: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a finished span and returns its index (-1 when dropped).
func (t *tracer) add(name string, start, end int64, parent int, task int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans || (task >= 0 && t.repTask >= maxRepTaskSpans) {
		t.dropped++
		return -1
	}
	if task >= 0 {
		t.repTask++
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Task: task})
	return len(t.spans) - 1
}

// begin opens a span; end closes it.
func (t *tracer) begin(name string, parent int, task int64) int {
	return t.add(name, t.now(), 0, parent, task)
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

func (t *tracer) beginRep() {
	t.repTask = 0
	t.root = t.begin("rep", -1, -1)
}
func (t *tracer) endRep() { t.end(t.root) }

// selfTimes is each span name's total self time: its duration minus the
// part its child spans cover.
func (t *tracer) selfTimes() map[string]int64 {
	self := map[string]int64{}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent < 0 {
			continue
		}
		// Only the part of the child inside the parent's interval counts:
		// a task's queue wait is caused by its submit call but outlasts it.
		p := t.spans[s.Parent]
		if lo, hi := max(s.Start, p.Start), min(s.End, p.End); hi > lo {
			child[s.Parent] += hi - lo
		}
	}
	for i, s := range t.spans {
		self[s.Name] += s.End - s.Start - child[i]
	}
	return self
}

// write stores the trace as <dir>/trace-<workload>.json.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s.json", workload))
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, err := json.Marshal(struct {
		Workload   string           `json:"workload"`
		Dropped    int64            `json:"spans_dropped"`
		SelfTimeNs map[string]int64 `json:"self_time_ns"`
		Spans      []span           `json:"spans"`
	}{workload, t.dropped, t.selfTimes(), t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}
