package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed interval of a traced run: a workload phase (setup,
// execute, drain) or a replay of calls into one layer. Times are host
// nanoseconds since the recorder's origin.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // 0 = a root span
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Args   map[string]float64 `json:"args,omitempty"`
}

// recorder keeps a traced run's spans in memory; they are written out
// once the run is over, so recording costs a clock read per span.
type recorder struct {
	origin time.Time
	spans  []span
	stack  []int // IDs of the spans opened by begin and not yet ended
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) ns(t time.Time) int64 { return t.Sub(r.origin).Nanoseconds() }

// parent is the innermost open span, or 0.
func (r *recorder) parent() int {
	if len(r.stack) == 0 {
		return 0
	}
	return r.stack[len(r.stack)-1]
}

// begin opens a span under the innermost open one and returns its ID.
func (r *recorder) begin(name string) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: r.parent(), Name: name, Start: r.ns(time.Now())})
	r.stack = append(r.stack, id)
	return id
}

// end closes span id, which must be the innermost open span, and
// attaches args (nil for none) to it.
func (r *recorder) end(id int, args map[string]float64) {
	if n := len(r.stack); n == 0 || r.stack[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %d ended out of order", id))
	}
	r.stack = r.stack[:len(r.stack)-1]
	s := &r.spans[id-1]
	s.End = r.ns(time.Now())
	s.Args = args
}

// add records an already finished interval under the innermost open
// span: the workload phases are only known once the run is over.
func (r *recorder) add(name string, start, end time.Time) {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: r.parent(), Name: name,
		Start: r.ns(start), End: r.ns(end)})
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover (overlapping children are
// counted once).
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered := int64(0)
		curS, curE := int64(0), int64(-1)
		flush := func() {
			if curE > curS {
				covered += curE - curS
			}
		}
		for _, c := range cs {
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if b <= a {
				continue
			}
			if a > curE {
				flush()
				curS, curE = a, b
			} else if b > curE {
				curE = b
			}
		}
		flush()
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// layerOf names the layer a span measures: the module prefix of a
// replay span ("vm.exec" → "vm"), or the span's own name for the
// workload phases.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfByLayer sums self time in milliseconds per layer.
func selfByLayer(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[layerOf(s.Name)] += float64(self[s.ID]) / 1e6
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing open directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes spans as Chrome trace-event JSON to path,
// with the run id and each span's ID, parent and self time in its args
// and the host stamp in the file's metadata.
func writeChromeTrace(path, runID string, spans []span, meta map[string]any) error {
	self := selfTimes(spans)
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		args := map[string]any{"run": runID, "id": s.ID, "parent": s.Parent,
			"self_us": float64(self[s.ID]) / 1e3}
		for k, v := range s.Args {
			args[k] = v
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: 1, Args: args,
		})
	}
	doc := map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
