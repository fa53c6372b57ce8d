package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one traced interval. Start and End are nanoseconds since the
// tracer was made; Parent is the id of the span that caused this one (0
// for a root). Spans of one request share Req (the job id); Counts are
// the work counted at the same boundary.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Req    string             `json:"req,omitempty"`
	Start  int64              `json:"start"`
	End    int64              `json:"end"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer is the
// untraced run: every method is a no-op that returns 0.
type tracer struct {
	t0    time.Time
	spans []span
	// spent accumulates the time the benchmark spent producing the
	// trace itself (per-chunk snapshots, span bookkeeping).
	spent time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	return t.beginAt(parent, name, time.Now())
}

func (t *tracer) beginAt(parent int, name string, at time.Time) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: at.Sub(t.t0).Nanoseconds(), End: -1})
	return id
}

func (t *tracer) end(id int) { t.endAt(id, time.Now()) }

func (t *tracer) endAt(id int, at time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = at.Sub(t.t0).Nanoseconds()
}

// add records a finished interval, for spans whose ends the benchmark
// learns afterwards (server-side queue and run times of a job).
func (t *tracer) add(parent int, name, req string, from, to time.Time) int {
	if t == nil {
		return 0
	}
	id := t.beginAt(parent, name, from)
	t.spans[id-1].Req = req
	t.endAt(id, to)
	return id
}

func (t *tracer) setReq(id int, req string) {
	if t != nil && id != 0 {
		t.spans[id-1].Req = req
	}
}

func (t *tracer) count(id int, counts map[string]float64) {
	if t != nil && id != 0 {
		t.spans[id-1].Counts = counts
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of that interval its child spans cover (overlapping children count
// once).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, edge), min(k.End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// subtreeSelf sums the self times of root and every span below it.
func subtreeSelf(spans []span, root int) int64 {
	self := selfTimes(spans)
	under := map[int]bool{root: true}
	var sum int64
	for _, s := range spans { // parents precede children: ids grow
		if under[s.Parent] {
			under[s.ID] = true
		}
		if under[s.ID] {
			sum += self[s.ID]
		}
	}
	return sum
}

// write stores the spans with their self times as one JSON document.
func (t *tracer) write(path string, st stamp) error {
	type outSpan struct {
		span
		Self int64 `json:"self"`
	}
	self := selfTimes(t.spans)
	doc := struct {
		Stamp stamp     `json:"stamp"`
		Unit  string    `json:"unit"`
		Spans []outSpan `json:"spans"`
	}{Stamp: st, Unit: "ns since tracer start"}
	for _, s := range t.spans {
		doc.Spans = append(doc.Spans, outSpan{s, self[s.ID]})
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
