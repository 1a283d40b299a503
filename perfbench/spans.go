package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"parallelagg/internal/trace"
)

// span is one timed region of a traced run. The benchmark records one
// around each call into a layer; the spans the program's own Tracer
// records during that call are attached as its children.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: no parent
	Query  int    `json:"query"`  // query id; -1 for layer probes
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps a traced run's spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// tracer returns a program Tracer on the recorder's clock, so that its
// spans line up with the benchmark's own.
func (r *recorder) tracer() *trace.Tracer { return trace.NewTracer(r.now) }

func (r *recorder) add(parent, query int, name string, start, end int64) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Query: query, Name: name, Start: start, End: end})
	return id
}

// adopt attaches the spans t recorded as children of parent, named
// prefix.<span name> with the node or worker index appended.
func (r *recorder) adopt(parent, query int, prefix string, t *trace.Tracer) []span {
	first := len(r.spans)
	for _, s := range t.Spans() {
		r.add(parent, query, fmt.Sprintf("%s.%s[%d]", prefix, s.Name, s.Node), s.Start, s.End)
	}
	return r.spans[first:]
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered is the length of the part of [start, end) that the children
// cover, counting overlaps once.
func covered(start, end int64, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		s, e := max(c.Start, start), min(c.End, end)
		if s < e {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curS, curE, open = x[0], x[1], true
		case x[0] > curE:
			total += curE - curS
			curS, curE = x[0], x[1]
		default:
			curE = max(curE, x[1])
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(s span, children []span) int64 { return s.dur() - covered(s.Start, s.End, children) }
