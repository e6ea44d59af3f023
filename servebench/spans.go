package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = none
	Req    int    `json:"req"`    // request index within the traced list
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder began
	End    int64  `json:"end_ns"`
	// AllocBytes and Allocs are the process-wide heap allocation during the
	// call (runtime.MemStats deltas; 0 when not measured).
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	Allocs     uint64 `json:"allocs,omitempty"`
	// Bytes is the response size the call produced, where it has one.
	Bytes int64 `json:"bytes,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory; they are written out once, at exit.
type recorder struct {
	mu    sync.Mutex
	begin time.Time
	spans []*span
}

func newRecorder() *recorder { return &recorder{begin: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.begin)) }

// add stores a finished span under the next id.
func (r *recorder) add(s *span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
}

// timed runs f as a span named name (parent 0 = root) and stores it.
func (r *recorder) timed(name string, req, parent int, allocs bool, f func() int64) {
	r.add(r.measure(name, req, parent, allocs, f))
}

// measure runs f as a span without storing it; f returns the byte count the
// call produced. With allocs set it also records the heap allocation f
// caused; reading MemStats stops the world, so it happens outside the timed
// interval.
func (r *recorder) measure(name string, req, parent int, allocs bool, f func() int64) *span {
	var before, after runtime.MemStats
	if allocs {
		runtime.ReadMemStats(&before)
	}
	s := &span{Name: name, Req: req, Parent: parent, Start: r.now()}
	s.Bytes = f()
	s.End = r.now()
	if allocs {
		runtime.ReadMemStats(&after)
		s.AllocBytes = after.TotalAlloc - before.TotalAlloc
		s.Allocs = after.Mallocs - before.Mallocs
	}
	return s
}

// reserve allocates an id for a span whose children are recorded before it
// ends; finish files it under that id.
func (r *recorder) reserve() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, nil)
	return len(r.spans)
}

func (r *recorder) finish(id int, s *span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = id
	r.spans[id-1] = s
}

// named returns the spans called name, in recording order.
func (r *recorder) named(name string) []*span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*span
	for _, s := range r.spans {
		if s != nil && s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// children returns the spans whose parent is id.
func (r *recorder) children(id int) []*span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*span
	for _, s := range r.spans {
		if s != nil && s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// selfTime is a span's duration minus the part of it its children cover
// (the union of their intervals, so overlapping parallel children count
// once).
func (r *recorder) selfTime(s *span) time.Duration {
	kids := r.children(s.ID)
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var covered, curS, curE int64
	open := false
	for _, k := range kids {
		st, en := max(k.Start, s.Start), min(k.End, s.End)
		if en <= st {
			continue
		}
		switch {
		case !open:
			curS, curE, open = st, en, true
		case st > curE:
			covered += curE - curS
			curS, curE = st, en
		case en > curE:
			curE = en
		}
	}
	if open {
		covered += curE - curS
	}
	return s.dur() - time.Duration(covered)
}

// write saves every span as JSON.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
