package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op;
// Parent is the ID of the span that caused this one (-1 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; dump writes them out when the run
// ends. A nil *tracer records nothing, so untraced code paths call it
// unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(name string, op int64, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span measured elsewhere (a replayed layer call).
func (t *tracer) add(name string, op int64, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	end := time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: -1, Op: op, Name: name, Start: end - d.Nanoseconds(), End: end})
}

// linkByOp sets the parent of every span named child to the span named
// parent that carries the same op ID. Spans opened on other goroutines
// (HTTP handlers, the router's transport) cannot know their parent's
// ID, only the op they serve.
func (t *tracer) linkByOp(child, parent string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byOp := map[int64]int{}
	for _, s := range t.spans {
		if s.Name == parent {
			byOp[s.Op] = s.ID
		}
	}
	for i := range t.spans {
		if t.spans[i].Name == child {
			if p, ok := byOp[t.spans[i].Op]; ok {
				t.spans[i].Parent = p
			}
		}
	}
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		covered := coverage(s, children[s.ID])
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// coverage is the length of the union of the children's intervals,
// clipped to the parent's.
func coverage(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// dump writes the spans as JSON lines to <dir>/trace/<workload>-<seed>.jsonl.
func (t *tracer) dump(dir, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	tdir := filepath.Join(dir, "trace")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(tdir, fmt.Sprintf("%s-%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
