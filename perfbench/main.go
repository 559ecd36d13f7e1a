// Command perfbench is the host-time benchmark of the Two-Chains
// simulator: how long it takes this host to simulate a scenario, end to
// end and layer by layer. Simulated results (digests, simulated time,
// goodputs, simulated message rates) are deterministic and serve only
// as correctness checks against stored reference values.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload mesh_steady --seed 3 --seconds 27 --trace 0
//
// A timed run (--trace 0) repeats the workload for --seconds in one
// child process, after untimed warm-up runs, and prints the median
// end-to-end metrics; set-up is timed separately, in fresh processes. A
// traced run (--trace 1) adds one traced run plus per-layer replays and
// prints the per-layer metrics, writing the spans as Chrome trace-event
// JSON under $CARGO_TARGET_DIR/traces (default .bench_build). The last
// line of standard output is always the result object. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Child process modes.
const (
	modeSample = "sample" // one untraced run
	modeSeries = "series" // warm-up runs, then untraced runs for -budget
	modeOracle = "oracle" // one untraced run on the reference interpreter
	modeTraced = "traced" // warm-up runs, one traced run, the layer replays
	modeSetup  = "setup"  // one run stopped at its first handler execution
)

// minSamples is the fewest timed runs a series takes, however short its
// budget. Set-up is short and noisy, so setup_s is the median of at
// least minSetups setup-only runs, which get setupShare of the budget.
const (
	// warmups untimed runs start a series: the first grows the heap from
	// nothing, and the second still runs measurably slower than the rest
	// on mesh_wide.
	warmups    = 2
	minSamples = 3
	minSetups  = 5
	setupShare = 0.1
)

// metric is one named value of the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 27, "host seconds to measure for")
		trace   = flag.Int("trace", 0, "1 = traced run with per-layer metrics")
		short   = flag.Bool("short", false, "test-sized inputs")
		child   = flag.String("child", "", "internal: run in this process (sample|series|oracle|traced|setup)")
		budget  = flag.Duration("budget", 0, "internal: how long a series runs")
		gen     = flag.String("gen-refs", "", "merge reference outputs for seeds LO-HI into refs.json in the current directory")
	)
	flag.Parse()
	if *gen != "" {
		return genMain(*name, *gen, *short)
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *child != "" {
		return childMain(w, *child, *seed, *short, *budget)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace takes 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	res, err := bench(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *short)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// childMain runs one sample, or a series of them, in this process and
// prints it as JSON.
func childMain(w *benchWorkload, mode string, seed uint64, short bool, budget time.Duration) int {
	o := runOpts{seed: seed, short: short}
	switch mode {
	case modeSample:
	case modeSeries:
		return emit(series(w, o, budget))
	case modeOracle:
		o.interp = true
	case modeTraced:
		o.rec = newRecorder()
	case modeSetup:
		o.setupOnly = true
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown child mode %q\n", mode)
		return 2
	}
	var warm []*sample
	if o.rec != nil {
		// Traced like the series it is compared with: after warm-ups.
		for i := 0; i < warmups; i++ {
			warm = append(warm, w.run(runOpts{seed: seed, short: short}))
			runtime.GC()
		}
	}
	s := w.run(o)
	for _, ws := range warm {
		if ws.Err != "" || ws.Out != s.Out {
			s.Err = fmt.Sprintf("warm-up run: err %q, outputs %+v, traced %+v", ws.Err, ws.Out, s.Out)
		}
	}
	if o.rec != nil {
		layers, err := runReplays(w.shape(short), seed, o.rec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: replay:", err)
			return 1
		}
		s.Spans, s.Layers = o.rec.spans, layers
	}
	return emit(s)
}

func emit(v any) int {
	if err := json.NewEncoder(os.Stdout).Encode(v); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// series runs the workload warmups times to warm the process (its
// code, caches and the heap the Go runtime holds from the OS, so later
// runs page in far less), then again and again, from a collected heap
// each time, until the budget is spent: it starts no run that would
// likely end past it, but always takes minSamples. The warm-up runs are
// returned first, marked. Every sample's PeakMB is the peak RSS of the
// process's first run: later runs start from a heap it has already grown.
func series(w *benchWorkload, o runOpts, budget time.Duration) []*sample {
	start := time.Now()
	var out []*sample
	peak := 0.0
	for {
		if len(out) > 0 {
			runtime.GC()
		}
		s := w.run(o)
		s.Warmup = len(out) < warmups
		out = append(out, s)
		if len(out) == 1 {
			peak = peakRSS()
		}
		elapsed := time.Since(start)
		if len(out) >= warmups+minSamples && elapsed+elapsed/time.Duration(len(out)) > budget {
			break
		}
	}
	for _, s := range out {
		s.PeakMB = peak
	}
	return out
}

// peakRSS is this process's peak resident set so far, in MiB (0 where
// /proc does not say).
func peakRSS() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// spawnSeries runs one child process of this binary with the given
// mode and returns the samples it printed (a series prints a list, the
// other modes one sample). A single-run sample's PeakMB is its
// process's peak RSS: a fresh heap and a peak of its own.
func spawnSeries(workload string, seed uint64, mode string, short bool, budget time.Duration) ([]*sample, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", mode, "-workload", workload, "-seed", strconv.FormatUint(seed, 10)}
	if short {
		args = append(args, "-short")
	}
	if mode == modeSeries {
		args = append(args, "-budget", budget.String())
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s %s seed %d: %w", mode, workload, seed, err)
	}
	var ss []*sample
	if mode == modeSeries {
		err = json.Unmarshal(out, &ss)
	} else {
		ss = []*sample{{}}
		err = json.Unmarshal(out, ss[0])
	}
	if err != nil {
		return nil, fmt.Errorf("%s %s seed %d: bad sample: %w", mode, workload, seed, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && mode != modeSeries {
		ss[0].PeakMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return ss, nil
}

// spawn runs one sample in a fresh process of this binary.
func spawn(workload string, seed uint64, mode string, short bool) (*sample, error) {
	ss, err := spawnSeries(workload, seed, mode, short, 0)
	if err != nil {
		return nil, err
	}
	return ss[0], nil
}

// reference returns the outputs every sample must reproduce: the stored
// value for this seed, or else the reference interpreter's outputs from
// an untimed run (nil if that run failed).
func reference(w *benchWorkload, seed uint64, short bool) (*outputs, string, error) {
	t, err := loadRefs()
	if err != nil {
		return nil, "", err
	}
	if o, ok := t.lookup(w.name, short, seed); ok {
		return &o, "stored", nil
	}
	s, err := spawn(w.name, seed, modeOracle, short)
	if err != nil {
		return nil, "", err
	}
	if s.Err != "" || s.Failed != 0 {
		return nil, "interpreter", nil
	}
	return &s.Out, "interpreter", nil
}

// sampleFor spends the budget on a series in one process, then on
// setup-only runs, each in a fresh process as a user's first run would
// be: it starts none that would likely end past the budget, but always
// takes minSetups. full starts with the series' warm-up runs.
func sampleFor(w *benchWorkload, seed uint64, short bool, budget time.Duration) (full, setups []*sample, err error) {
	start := time.Now()
	seriesBudget := time.Duration(float64(budget) * (1 - setupShare))
	if full, err = spawnSeries(w.name, seed, modeSeries, short, seriesBudget); err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	for {
		s, err := spawn(w.name, seed, modeSetup, short)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, s)
		per := time.Since(t0) / time.Duration(len(setups))
		if len(setups) >= minSetups && time.Since(start)+per > budget {
			return full, setups, nil
		}
	}
}

// timed drops a series' warm-up runs.
func timed(samples []*sample) []*sample {
	var out []*sample
	for _, s := range samples {
		if !s.Warmup {
			out = append(out, s)
		}
	}
	return out
}

func column(samples []*sample, f func(*sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

// endToEnd lists the end-to-end metrics: name, unit, how to read it
// from a sample, and how a run's samples combine. Times are medians;
// the heap allocation is a near-exact count, so it is averaged.
var endToEnd = []struct {
	name, unit string
	get        func(*sample) float64
	agg        func([]float64) float64
}{
	{"wall_s", "s", func(s *sample) float64 { return s.Wall }, median},
	{"setup_s", "s", func(s *sample) float64 { return s.Setup }, median},
	{"steady_inj_per_s", "1/s", func(s *sample) float64 { return s.Steady }, median},
	{"alloc_mb", "MiB", func(s *sample) float64 { return s.AllocMB }, mean},
	{"peak_mem_mb", "MiB", func(s *sample) float64 { return s.PeakMB }, median},
}

// bench measures one workload at one seed and returns the result
// object; the host stamp and a per-metric summary go to standard output
// before it.
func bench(w *benchWorkload, seed uint64, budget time.Duration, traced, short bool) (*result, error) {
	ref, refSrc, err := reference(w, seed, short)
	if err != nil {
		return nil, err
	}
	if traced {
		// Half the budget measures the untraced median the tracing
		// overhead is taken against; the traced run and replays follow.
		budget /= 2
	}
	samples, setups, err := sampleFor(w, seed, short, budget)
	if err != nil {
		return nil, err
	}
	all := samples // every full run's outputs are checked, warm-ups' too
	samples = timed(samples)
	res := &result{Metrics: map[string]metric{}}
	summary := map[string]any{}
	cpu := column(samples, func(s *sample) float64 { return s.CPU })
	summary["cpu_s"] = map[string]any{"median": median(cpu), "spread": spread(cpu), "values": cpu}
	for _, m := range endToEnd {
		vals := column(samples, m.get)
		if m.name == "setup_s" {
			vals = column(setups, m.get)
		}
		summary[m.name] = map[string]any{"median": median(vals), "spread": spread(vals), "values": vals}
		if !traced {
			res.Metrics[m.name] = metric{m.agg(vals), m.unit}
		}
	}
	var tr *sample
	if traced {
		if tr, err = spawn(w.name, seed, modeTraced, short); err != nil {
			return nil, err
		}
		all = append(all, tr)
		wall := median(column(samples, func(s *sample) float64 { return s.Wall }))
		if res.Metrics, err = layerMetrics(tr, 100*(tr.Wall/wall-1)); err != nil {
			return nil, err
		}
	}
	t := account(all, ref)
	res.Correct, res.Attempted, res.Failed = t.correct, t.attempted, t.failed
	for _, m := range t.mismatches {
		fmt.Fprintln(os.Stderr, "perfbench: output check:", m)
	}

	stamp := hostStamp()
	stamp["workload"], stamp["seed"], stamp["samples"] = w.name, seed, len(samples)
	stamp["reference"] = refSrc
	if tr != nil {
		dir := os.Getenv("CARGO_TARGET_DIR")
		if dir == "" {
			dir = ".bench_build"
		}
		path := filepath.Join(dir, "traces", fmt.Sprintf("%s-seed%d.json", w.name, seed))
		runID := fmt.Sprintf("%s/seed%d/traced", w.name, seed)
		if err := writeChromeTrace(path, runID, tr.Spans, stamp); err != nil {
			return nil, err
		}
		stamp["trace_file"] = path
	}
	line, err := json.Marshal(map[string]any{"host": stamp, "summary": summary})
	if err != nil {
		return nil, err
	}
	fmt.Println(string(line))
	return res, nil
}

// layers are the layers whose self time a traced run reports: the
// workload phases, then the program's modules in replay order.
var layers = []string{"setup", "execute", "drain", "tcapp", "tc", "linker", "core", "vm", "mailbox", "memsim", "sim"}

// perLayer lists the per-layer metrics a traced run reports, with
// their units; the self_ms.<layer> entries follow.
var perLayer = []struct{ name, unit string }{
	{"tcapp.build_ms", "ms"},
	{"tc.new_system_ms", "ms"},
	{"linker.install_ms", "ms"},
	{"linker.install_ms_per_node", "ms"},
	{"core.first_call_us", "us"},
	{"core.channels", "count"},
	{"core.jam_binds", "count"},
	{"core.jam_hit_ratio", "ratio"},
	{"vm.compile_us", "us"},
	{"vm.exec_ns", "ns"},
	{"vm.interp_ns", "ns"},
	{"vm.compiles_per_inj", "ratio"},
	{"vm.jit_deopts", "count"},
	{"mailbox.pack_ns", "ns"},
	{"mailbox.parse_ns", "ns"},
	{"mailbox.credit_stalls", "count"},
	{"mailbox.frames_per_batch", "ratio"},
	{"tc.call_ns", "ns"},
	{"tc.run_ns_per_inj", "ns"},
	{"memsim.access_ns", "ns"},
	{"memsim.hit_ratio", "ratio"},
	{"sim.event_ns", "ns"},
	{"go.mallocs_per_inj", "ratio"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"trace_overhead_pct", "%"},
}

// layerMetrics turns a traced sample into the per-layer metrics: the
// replay timings, the counters the traced run read, and self times.
func layerMetrics(tr *sample, overheadPct float64) (map[string]metric, error) {
	v := map[string]float64{}
	for k, x := range tr.Layers {
		v[k] = x
	}
	c := tr.Counters
	inj := float64(max(tr.Out.Injections, 1))
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	v["core.channels"] = float64(c.Channels)
	v["core.jam_binds"] = float64(c.JamBinds)
	v["core.jam_hit_ratio"] = ratio(float64(c.JamHits), float64(c.JamHits+c.JamBinds))
	v["mailbox.credit_stalls"] = float64(c.CreditStalls)
	// A thin put carries one frame or, batched, BatchedFrames of them
	// over Batches puts.
	v["mailbox.frames_per_batch"] = ratio(float64(c.Sent), float64(c.Batches+c.Sent-c.BatchedFrames))
	if c.HoldsVM {
		// The workload's own system beats the replay's estimate.
		v["vm.compiles_per_inj"] = float64(c.VMCompiles) / inj
		v["vm.jit_deopts"] = float64(c.VMDeopts)
	}
	v["go.mallocs_per_inj"] = float64(c.Mallocs) / inj
	v["go.gc_cycles"] = float64(c.GCs)
	v["go.gc_pause_ms"] = float64(c.GCPauseNs) / 1e6
	v["trace_overhead_pct"] = overheadPct

	out := map[string]metric{}
	for _, m := range perLayer {
		x, ok := v[m.name]
		if !ok {
			return nil, fmt.Errorf("traced run did not measure %s", m.name)
		}
		out[m.name] = metric{x, m.unit}
	}
	self := selfByLayer(tr.Spans)
	for _, l := range layers {
		out["self_ms."+l] = metric{self[l], "ms"}
	}
	return out, nil
}

// hostStamp describes where the numbers were measured: host numbers
// compare only within one host and one session.
func hostStamp() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			commit = rev + dirty
		}
	}
	return map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit,
		"workers":    1,
	}
}

// genMain writes reference outputs: -gen-refs LO-HI [-workload name]
// [-short], every workload when none is named.
func genMain(name, span string, short bool) int {
	lo, hi, ok := strings.Cut(span, "-")
	a, err1 := strconv.ParseUint(lo, 10, 64)
	b, err2 := strconv.ParseUint(hi, 10, 64)
	if !ok || err1 != nil || err2 != nil || a > b {
		fmt.Fprintln(os.Stderr, "perfbench: -gen-refs takes LO-HI")
		return 2
	}
	var names []string
	if name != "" {
		w, err := lookupWorkload(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		names = []string{w.name}
	} else {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	sort.Strings(names)
	if err := genRefs("refs.json", names, a, b, short); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}
