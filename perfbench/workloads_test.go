package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	"twochains/internal/perf"
)

// TestShortPassChecksOutputs runs every workload at test size: the
// compiled run, the interpreter run and the stored reference must agree,
// with nothing failed, and the traced run must reproduce the same
// outputs and measure every per-layer metric.
func TestShortPassChecksOutputs(t *testing.T) {
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	const seed = 1
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			ref, ok := refs.lookup(w.name, true, seed)
			if !ok {
				t.Fatalf("no stored short reference for seed %d", seed)
			}
			jit := w.run(runOpts{seed: seed, short: true})
			interp := w.run(runOpts{seed: seed, short: true, interp: true})
			rec := newRecorder()
			traced := w.run(runOpts{seed: seed, short: true, rec: rec})
			tl := account([]*sample{jit, interp, traced}, &ref)
			if !tl.correct || tl.failed != 0 {
				t.Fatalf("output check: %+v", tl)
			}
			if jit.Wall <= 0 || jit.Setup <= 0 || jit.Setup > jit.Wall || jit.Steady <= 0 || jit.AllocMB <= 0 {
				t.Errorf("implausible host metrics: %+v", jit)
			}
			traced.Layers, err = runReplays(w.shape(true), seed, rec)
			if err != nil {
				t.Fatal(err)
			}
			traced.Spans = rec.spans
			m, err := layerMetrics(traced, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range layers {
				if _, ok := m["self_ms."+l]; !ok {
					t.Errorf("no self time for %s", l)
				}
			}
		})
	}
}

func TestSetupOnlyStopsAtFirstExecution(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		s := w.run(runOpts{seed: 2, short: true, setupOnly: true})
		if !s.SetupOnly || s.Setup <= 0 || s.Out.Injections != 0 {
			t.Errorf("%s: setup-only run %+v", w.name, s)
		}
	}
}

// TestSeriesWarmsUpFirst checks a series' shape: warmups marked
// warm-up runs, then at least minSamples timed runs with the same
// outputs, every one stamped with the first run's peak RSS.
func TestSeriesWarmsUpFirst(t *testing.T) {
	ss := series(&workloads[1], runOpts{seed: 1, short: true}, 0)
	if len(ss) != warmups+minSamples {
		t.Fatalf("series of %d runs", len(ss))
	}
	for i, s := range ss {
		if s.Warmup != (i < warmups) || s.Out != ss[0].Out {
			t.Errorf("run %d: warm-up %v, outputs %+v, want %+v", i, s.Warmup, s.Out, ss[0].Out)
		}
		if s.PeakMB <= 0 || s.PeakMB != ss[0].PeakMB {
			t.Errorf("run %d: peak %v MiB, first run's %v", i, s.PeakMB, ss[0].PeakMB)
		}
	}
	if got := timed(ss); len(got) != minSamples || got[0] != ss[warmups] {
		t.Errorf("timed kept %d runs", len(got))
	}
}

// TestPaperRateRigMatchesPerf pins the benchmark's rig to the paper
// rig it reproduces: perf.InjectionRate with the same configuration
// must report the same simulated message rate.
func TestPaperRateRigMatchesPerf(t *testing.T) {
	const seed = 3
	s := runPaperRate(runOpts{seed: seed, short: true})
	keys := rateKeys(seed, rateWarmup+rateShort)
	cfg := perf.DefaultRunConfig()
	cfg.Kind, cfg.Elem, cfg.PayloadBytes = perf.WkInjected, "jam_iput", ratePayload
	cfg.Warmup, cfg.Iters = rateWarmup, rateShort
	cfg.Banks, cfg.Slots = rateBanks, rateSlots
	cfg.NodeCfg = rateNodeConfig(seed, false)
	cfg.KeyFn = func(i int) uint64 { return keys[i] }
	res, err := perf.InjectionRate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rate != s.Out.SimRate || s.Out.SimRate == 0 {
		t.Errorf("benchmark rig %v msgs/s, perf.InjectionRate %v", s.Out.SimRate, res.Rate)
	}
}

// TestBenchmarkJSONMatchesCode keeps the benchmark description at the
// repository root in step with what the code reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range doc.Workloads {
		got = append(got, w.Name+": "+w.Why)
	}
	for _, w := range workloads {
		want = append(want, w.name+": "+w.why)
	}
	for _, m := range doc.EndToEnd {
		got = append(got, m.Name+" "+m.Unit)
	}
	for _, m := range endToEnd {
		want = append(want, m.name+" "+m.unit)
	}
	for _, m := range doc.PerLayer {
		got = append(got, m.Name+" "+m.Unit)
	}
	for _, m := range perLayer {
		want = append(want, m.name+" "+m.unit)
	}
	for _, l := range layers {
		want = append(want, "self_ms."+l+" ms")
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d names, code reports %d:\n%v\n%v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("BENCHMARK.json %q, code %q", got[i], want[i])
		}
	}
}
