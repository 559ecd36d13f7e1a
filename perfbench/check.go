package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// refs.json holds the reference outputs of every workload for a range
// of seeds, each made by a compiled run and an interpreter run that
// agreed (see -gen-refs). Keys are workload names, with "/short" for
// the test-sized inputs, then decimal seeds.
//
//go:embed refs.json
var refsJSON []byte

type refTable map[string]map[string]outputs

func loadRefs() (refTable, error) {
	var t refTable
	if err := json.Unmarshal(refsJSON, &t); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	return t, nil
}

func refKey(workload string, short bool) string {
	if short {
		return workload + "/short"
	}
	return workload
}

// lookup returns the stored reference for (workload, seed), if any.
func (t refTable) lookup(workload string, short bool, seed uint64) (outputs, bool) {
	o, ok := t[refKey(workload, short)][strconv.FormatUint(seed, 10)]
	return o, ok
}

// tally is the correctness summary of a run: every sample's outputs
// checked against the reference, and failures counted against planned
// operations.
type tally struct {
	correct   bool
	attempted int
	failed    int
	// mismatches describes each sample that failed the output check.
	mismatches []string
}

// account checks every sample against ref (nil when no reference could
// be made, which fails them all). A sample that errored or whose
// outputs differ counts all of its planned operations as failed; one
// that matches counts its handler errors, losses and drops.
func account(samples []*sample, ref *outputs) tally {
	t := tally{correct: true}
	for i, s := range samples {
		t.attempted += s.Planned
		switch {
		case s.Err != "":
			t.mismatches = append(t.mismatches, fmt.Sprintf("sample %d: run failed: %s", i, s.Err))
		case ref == nil:
			t.mismatches = append(t.mismatches, fmt.Sprintf("sample %d: no reference outputs", i))
		case s.Out != *ref:
			t.mismatches = append(t.mismatches, fmt.Sprintf("sample %d: outputs %+v, want %+v", i, s.Out, *ref))
		default:
			t.failed += s.Failed
			continue
		}
		t.correct = false
		t.failed += max(s.Planned, 1)
	}
	if t.attempted == 0 {
		t.attempted = 1
	}
	return t
}

// genRefs runs seeds lo..hi of the workloads (compiled and interpreted,
// each in its own process), requires the two to agree without failures,
// and merges the outputs into the table at path.
func genRefs(path string, names []string, lo, hi uint64, short bool) error {
	t := refTable{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &t); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	var err error
	for _, name := range names {
		key := refKey(name, short)
		if t[key] == nil {
			t[key] = map[string]outputs{}
		}
		for seed := lo; seed <= hi; seed++ {
			var got [2]*sample
			for i, mode := range []string{modeSample, modeOracle} {
				if got[i], err = spawn(name, seed, mode, short); err != nil {
					return err
				}
				if got[i].Err != "" || got[i].Failed != 0 {
					return fmt.Errorf("%s seed %d (%s): err %q, %d failed", name, seed, mode, got[i].Err, got[i].Failed)
				}
			}
			if got[0].Out != got[1].Out {
				return fmt.Errorf("%s seed %d: compiled %+v != interpreted %+v", name, seed, got[0].Out, got[1].Out)
			}
			t[key][strconv.FormatUint(seed, 10)] = got[0].Out
			fmt.Fprintf(os.Stderr, "%s seed %d: %+v\n", key, seed, got[0].Out)
		}
	}
	b, err := json.MarshalIndent(t, "", " ") // map keys come out sorted
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
