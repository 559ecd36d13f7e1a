package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "replay", Start: 0, End: 100},
		// Overlapping children cover [10, 50) once: 40 ns.
		{ID: 2, Parent: 1, Name: "vm.exec", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "vm.interp", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "sim.event", Start: 60, End: 70},
		// A child running past its parent counts only inside it.
		{ID: 5, Parent: 1, Name: "tc.run", Start: 95, End: 120},
		{ID: 6, Parent: 2, Name: "vm.compile", Start: 12, End: 18},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 10 - 5, 2: 20 - 6, 3: 30, 4: 10, 5: 25, 6: 6}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
	by := selfByLayer(spans)
	if got, want := by["vm"], float64(14+30+6)/1e6; got < want*0.999999 || got > want*1.000001 {
		t.Errorf("vm self = %v ms, want %v", got, want)
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	r := newRecorder()
	root := r.begin("replay")
	a := r.begin("vm.exec")
	r.end(a, map[string]float64{"tcbench/jam_iput": 1})
	r.add("setup", r.origin, r.origin)
	r.end(root, nil)
	if len(r.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(r.spans))
	}
	for _, s := range r.spans[1:] {
		if s.Parent != root {
			t.Errorf("span %s has parent %d, want %d", s.Name, s.Parent, root)
		}
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	path := filepath.Join(t.TempDir(), "t.json")
	if err := writeChromeTrace(path, "run", r.spans, map[string]any{"num_cpu": 1}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 || doc.TraceEvents[1].Ph != "X" || doc.TraceEvents[1].Cat != "vm" {
		t.Errorf("unexpected trace events: %+v", doc.TraceEvents)
	}
}
