package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spans records one span per call into a layer's public function: name,
// start, end, the span that caused it, and the request (trace) it belongs
// to. Spans stay in memory and are written out when the run ends. A nil
// *spans records nothing, so untraced runs pay one nil check per call.
type spans struct {
	t0   time.Time
	next atomic.Int64
	mu   sync.Mutex
	recs []spanRec
}

type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder started
	End    int64  `json:"end_ns"`
}

func newSpans() *spans {
	return &spans{t0: time.Now(), recs: make([]spanRec, 0, 1<<16)}
}

// open is a started span; close it with end.
type open struct {
	s      *spans
	name   string
	trace  uint64
	parent int
	id     int
	start  time.Time
}

// begin starts a span under parent (0 for a root); pass the returned
// span's id to its children.
func (s *spans) begin(name string, trace uint64, parent int) open {
	if s == nil {
		return open{}
	}
	id := int(s.next.Add(1))
	return open{s: s, name: name, trace: trace, parent: parent, id: id, start: time.Now()}
}

// end closes the span and records it.
func (o open) end() {
	if o.s == nil {
		return
	}
	end := time.Now()
	o.s.mu.Lock()
	o.s.recs = append(o.s.recs, spanRec{
		ID: o.id, Parent: o.parent, Trace: o.trace, Name: o.name,
		Start: o.start.Sub(o.s.t0).Nanoseconds(),
		End:   end.Sub(o.s.t0).Nanoseconds(),
	})
	o.s.mu.Unlock()
}

// durations returns the durations of every span with the given name, in
// seconds, sorted ascending.
func (s *spans) durations(name string) []float64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []float64
	for _, r := range s.recs {
		if r.Name == name {
			out = append(out, float64(r.End-r.Start)/1e9)
		}
	}
	sort.Float64s(out)
	return out
}

// total is the summed duration of the named spans, in seconds.
func (s *spans) total(name string) float64 {
	sum := 0.0
	for _, d := range s.durations(name) {
		sum += d
	}
	return sum
}

func (s *spans) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	s.mu.Lock()
	for _, r := range s.recs {
		if err := enc.Encode(r); err != nil {
			s.mu.Unlock()
			_ = f.Close()
			return err
		}
	}
	s.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
