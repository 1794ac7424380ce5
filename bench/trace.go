package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one interval at a layer boundary. Spans are recorded from
// the benchmark's side of each call into the system; Parent is the id
// of the span that caused this one (0 for a root) and spans of one job
// share Job.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Job    int     `json:"job"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the tracer started
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how the end-to-end pass runs.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent, job int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Job: job, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(),
	})
	return id
}

// setEnd moves the end of a span that was added before its children.
func (t *tracer) setEnd(id int, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end.Sub(t.t0).Seconds()
}

// timed runs fn as a root span.
func (t *tracer) timed(name string, fn func()) {
	start := time.Now()
	fn()
	t.add(name, 0, 0, start, time.Now())
}

// selfTimes returns, per span name, total duration and self time: the
// span's duration minus the part of it its children cover.
func selfTimes(spans []span) (total, self map[string]float64) {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	total, self = make(map[string]float64), make(map[string]float64)
	for _, s := range spans {
		d := s.End - s.Start
		total[s.Name] += d
		self[s.Name] += d - covered(children[s.ID], s.Start, s.End)
	}
	return total, self
}

// covered is the length of the union of the spans clipped to [lo,hi].
func covered(spans []span, lo, hi float64) float64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	sum, at := 0.0, lo
	for _, s := range spans {
		a, b := max(s.Start, at), min(s.End, hi)
		if b > a {
			sum += b - a
			at = b
		}
	}
	return sum
}

// stageNames are a job's stage spans in pipeline order.
var stageNames = []string{"engine.ingest", "engine.map", "engine.reduce", "engine.output"}

// printTimeTable prints the "where the time goes" table of one
// workload from its traced jobs: each stage's share of the traced job
// wall time, and the share no stage span covers.
func printTimeTable(w io.Writer, workload string, spans []span) {
	total, self := selfTimes(spans)
	wall := total["job"]
	if wall == 0 {
		return
	}
	fmt.Fprintf(w, "where the time goes: %s (traced jobs, %.3f s of job wall time)\n", workload, wall)
	for _, name := range stageNames {
		fmt.Fprintf(w, "  %-16s %7.3f s  %5.1f %%\n", name, total[name], 100*total[name]/wall)
	}
	fmt.Fprintf(w, "  %-16s %7.3f s  %5.1f %%\n", "(unattributed)", self["job"], 100*self["job"]/wall)
}
