package main

import (
	"strings"
	"testing"
)

func okSample(failed int) *sample {
	return &sample{Planned: 100, Failed: failed,
		Out: outputs{Digest: "00000000000000ff", Injections: 100 - failed, SimNs: 7}}
}

func TestAccountCountsFailures(t *testing.T) {
	ref := okSample(0).Out
	// Matching outputs: only the run's own handler errors count.
	a, b := okSample(0), okSample(0)
	tl := account([]*sample{a, b}, &ref)
	if !tl.correct || tl.attempted != 200 || tl.failed != 0 {
		t.Errorf("clean runs: %+v", tl)
	}

	// A forced digest mismatch fails the whole run.
	bad := okSample(0)
	bad.Out.Digest = "00000000000000fe"
	tl = account([]*sample{okSample(0), bad}, &ref)
	if tl.correct || tl.attempted != 200 || tl.failed != 100 || len(tl.mismatches) != 1 {
		t.Errorf("digest mismatch: %+v", tl)
	}

	// A run that errored fails whole; a reference that could not be made
	// fails every run.
	errd := okSample(0)
	errd.Err = "workload: executed 90+0 (+0 lost) of 100 planned messages"
	tl = account([]*sample{errd}, &ref)
	if tl.correct || tl.failed != 100 || !strings.Contains(tl.mismatches[0], "run failed") {
		t.Errorf("errored run: %+v", tl)
	}
	tl = account([]*sample{okSample(0)}, nil)
	if tl.correct || tl.failed != 100 {
		t.Errorf("no reference: %+v", tl)
	}
}

func TestUnknownWorkloadListsValidOnes(t *testing.T) {
	_, err := lookupWorkload("mesh_tall")
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	for _, w := range workloads {
		if !strings.Contains(err.Error(), w.name) {
			t.Errorf("error %q does not list %s", err, w.name)
		}
	}
}
