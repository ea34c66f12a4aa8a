package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call into a layer's public entry point, recorded from
// the benchmark's side of the call.
type span struct {
	name       string
	start, end int64 // ns since the log's epoch
	parent     int32 // index of the enclosing span in the same recorder, -1 for none
	id         int64 // request or decision id, -1 for none
}

// recorder keeps the spans of one goroutine in memory. A nil recorder
// records nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int32
}

// begin opens a span and returns its index (or -1 on a nil recorder).
func (r *recorder) begin(name string, id int64) int32 {
	if r == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	idx := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, start: int64(time.Since(r.epoch)), parent: parent, id: id})
	r.open = append(r.open, idx)
	return idx
}

// end closes the innermost open span and returns its duration in ns.
func (r *recorder) end(idx int32) int64 {
	if r == nil || idx < 0 {
		return 0
	}
	s := &r.spans[idx]
	s.end = int64(time.Since(r.epoch))
	r.open = r.open[:len(r.open)-1]
	return s.end - s.start
}

// spanLog collects the recorders of one traced run.
type spanLog struct {
	epoch time.Time
	recs  []*recorder
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// recorder returns a new recorder for one goroutine (nil on a nil log).
func (l *spanLog) recorder() *recorder {
	if l == nil {
		return nil
	}
	r := &recorder{epoch: l.epoch}
	l.recs = append(l.recs, r)
	return r
}

func (l *spanLog) len() int {
	n := 0
	for _, r := range l.recs {
		n += len(r.spans)
	}
	return n
}

// layerOf maps a span name ("gateway.Submit") to its layer ("gateway").
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes returns each layer's self time in ns: the duration of its spans
// minus the part covered by their direct children.
func (l *spanLog) selfTimes() map[string]int64 {
	out := map[string]int64{}
	for _, r := range l.recs {
		child := make([]int64, len(r.spans))
		for _, s := range r.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range r.spans {
			out[layerOf(s.name)] += s.end - s.start - child[i]
		}
	}
	return out
}

// writeFile writes every span as CSV (recorder, name, start_ns, end_ns,
// parent, id). A recorder appends spans as they open, so its lines are in
// start order and parent is the index of the parent's line in that recorder.
func (l *spanLog) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "recorder,name,start_ns,end_ns,parent,id")
	for ri, r := range l.recs {
		for _, s := range r.spans {
			fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", ri, s.name, s.start, s.end, s.parent, s.id)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
