package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the program:
// name, start and end in ns since the recorder started, the span that caused
// it (-1 for a root) and the request or repetition it belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the untraced run shares the traced run's code.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) begin(name string, parent, req int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// do runs fn inside a span, handing it the span's id (-1 on a nil recorder),
// and returns how long it took, recorder or not.
func (r *recorder) do(name string, parent, req int, fn func(id int)) time.Duration {
	id := r.begin(name, parent, req)
	start := time.Now()
	fn(id)
	d := time.Since(start)
	r.end(id)
	return d
}

// add records a span timed elsewhere (the lifecycle tap stamps requests with
// wall-clock times) and returns its id.
func (r *recorder) add(name string, start, end time.Time, parent, req int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0)), Parent: parent, Req: req})
	return len(r.spans) - 1
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Children may overlap each other (parallel calls)
// and may stick out of the parent; the cover is the union of the child
// intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var cover, reach int64 = 0, s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				cover += hi - lo
				reach = hi
			}
		}
		self[i] = (s.End - s.Start) - cover
	}
	return self
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]int64 {
	out := map[string]int64{}
	for i, t := range selfTimes(spans) {
		out[spans[i].Name] += t
	}
	return out
}

func writeSpans(outDir, workload string, env envStamp, spans []span) error {
	raw, err := json.Marshal(map[string]any{"workload": workload, "env": env, "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+workload+".json"), append(raw, '\n'), 0o644)
}
