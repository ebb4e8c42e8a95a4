package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one benchmark-side timed call into a layer of the program.
type span struct {
	name       string
	start, end time.Time
	id, parent int
	lane       int // Chrome trace thread: the driver slot or client
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, lane int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: time.Now(), id: len(t.spans) + 1, parent: parent, lane: lane})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// under returns the finished spans that descend from root.
func (t *tracer) under(root int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	in := map[int]bool{root: true}
	var out []span
	for _, s := range t.spans { // parents always precede their children
		if in[s.parent] && !s.end.IsZero() {
			in[s.id] = true
			out = append(out, s)
		}
	}
	return out
}

// sumByName totals span durations in seconds per span name.
func sumByName(spans []span) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		out[s.name] += s.end.Sub(s.start).Seconds()
	}
	return out
}

// covered returns the seconds of [from, to] that at least one span
// covers — the union of the intervals, so overlapping concurrent spans
// count once.
func covered(spans []span, from, to time.Time) float64 {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, s := range spans {
		a, b := s.start, s.end
		if a.Before(from) {
			a = from
		}
		if b.After(to) {
			b = to
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total.Seconds()
}

// writeTrace saves a traced run's spans under buildDir and returns the
// file's path.
func writeTrace(t *tracer, o options, workload string) (string, error) {
	path := filepath.Join(buildDir, fmt.Sprintf("perfbench-%s-seed%d.trace.json", workload, o.seed))
	meta := map[string]any{"workload": workload, "seed": o.seed, "machine": stampMachine()}
	return path, t.write(path, meta)
}

// chromeEvent is one complete ("X") event of the Chrome trace_event
// format, which Perfetto and chrome://tracing open.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write saves every finished span as Chrome trace JSON, with the run's
// identity and machine stamp as metadata.
func (t *tracer) write(path string, meta map[string]any) error {
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end.IsZero() {
			continue
		}
		args := map[string]any{"span_id": s.id}
		if s.parent != 0 {
			args["parent_span_id"] = s.parent
			args["parent"] = t.spans[s.parent-1].name
		}
		events = append(events, chromeEvent{
			Name: s.name, Ph: "X", PID: 1, TID: s.lane, Args: args,
			Ts:  float64(s.start.Sub(t.origin).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
		})
	}
	t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
