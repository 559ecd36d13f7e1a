package main

import (
	"fmt"
	"runtime"
	"strings"
	"syscall"
	"time"

	"twochains/internal/core"
	"twochains/internal/mailbox"
	"twochains/internal/sim"
	"twochains/internal/tc"
	"twochains/internal/tcapp"
	"twochains/internal/workload"
)

// outputs are a run's simulated results. They are deterministic for a
// (workload, seed) pair, so they are checked for equality against the
// reference, never timed.
type outputs struct {
	Digest     string  `json:"digest"`
	Injections int     `json:"injections"`
	SimNs      int64   `json:"sim_ns"`
	Gold       float64 `json:"gold_goodput_per_s,omitempty"`
	Bronze     float64 `json:"bronze_goodput_per_s,omitempty"`
	SimRate    float64 `json:"sim_msgs_per_s,omitempty"`
}

// counters are the layer counters one run reads after it ends.
type counters struct {
	Channels      int    `json:"channels"`
	JamBinds      uint64 `json:"jam_binds"`
	JamHits       uint64 `json:"jam_hits"`
	Sent          uint64 `json:"sent"`
	CreditStalls  uint64 `json:"credit_stalls"`
	Batches       uint64 `json:"batches"`
	BatchedFrames uint64 `json:"batched_frames"`
	// VMCompiles and VMDeopts are read only where the benchmark holds the
	// tc.System (HoldsVM); workload.Run keeps its system private.
	HoldsVM    bool   `json:"holds_vm"`
	VMCompiles uint64 `json:"vm_compiles"`
	VMDeopts   uint64 `json:"vm_deopts"`
	Mallocs    uint64 `json:"mallocs"`
	GCs        uint32 `json:"gcs"`
	GCPauseNs  uint64 `json:"gc_pause_ns"`
}

// sample is one complete run of a workload in its own process.
type sample struct {
	Wall    float64 `json:"wall_s"`
	Setup   float64 `json:"setup_s"`
	Steady  float64 `json:"steady_inj_per_s"`
	AllocMB float64 `json:"alloc_mb"`
	PeakMB  float64 `json:"peak_mem_mb"` // the process's peak RSS (see series and spawnSeries)
	// CPU is the process's user+system CPU seconds during the run (all
	// threads, the garbage collector's too). It is reported in the
	// summary only.
	CPU float64 `json:"cpu_s"`
	// Warmup marks an untimed run that warms a series' process.
	Warmup bool `json:"warmup,omitempty"`
	// Planned is the run's planned operations; Failed counts handler
	// errors, lost and dropped messages (all of Planned when the run
	// itself errored, as recorded in Err).
	Planned  int      `json:"planned"`
	Failed   int      `json:"failed"`
	Err      string   `json:"err,omitempty"`
	Out      outputs  `json:"outputs"`
	Counters counters `json:"counters"`
	// Spans and Layers are set by a traced run only.
	Spans  []span             `json:"spans,omitempty"`
	Layers map[string]float64 `json:"layers,omitempty"`
	// SetupOnly marks a run stopped at its first handler execution: only
	// Setup is measured.
	SetupOnly bool `json:"setup_only,omitempty"`
}

// runOpts selects how one run executes.
type runOpts struct {
	seed   uint64 // the --seed the inputs are made from
	short  bool   // test-sized inputs
	interp bool   // the reference interpreter instead of the compiled jams
	// setupOnly stops the run at its first handler execution.
	setupOnly bool
	rec       *recorder
}

// shape is what the per-layer replays need to know about a workload:
// its deployment size, traffic mix, and message shape.
type shape struct {
	nodes, shards  int
	mix            []workload.ElementMix
	payload, burst int
	arg1           bool
}

// benchWorkload is one named workload. Its sizes are fixed; its inputs
// are a pure function of the seed.
type benchWorkload struct {
	name  string
	why   string
	shape func(short bool) shape
	run   func(o runOpts) *sample
}

var workloads = []benchWorkload{
	{
		name: "mesh_wide",
		why: "64-node all-to-all, 1 round: 4032 lazily created channels, so channel creation, " +
			"jam binds and JIT compiles mid-run dominate",
		shape: func(short bool) shape { return scenarioShape(meshWideScenario(0, short)) },
		run:   func(o runOpts) *sample { return runScenario(meshWideScenario(o.seed, o.short), o) },
	},
	{
		name: "mesh_steady",
		why: "8-node all-to-all, 120 rounds over 56 early channels: the per-injection path and " +
			"jam re-translation in alternating mailbox slots dominate",
		shape: func(short bool) shape { return scenarioShape(meshSteadyScenario(0, short)) },
		run:   func(o runOpts) *sample { return runScenario(meshSteadyScenario(o.seed, o.short), o) },
	},
	{
		name: "kv_tenants",
		why: "two weighted tenants offering open-loop kvstore puts, gets and scans at 4x load: " +
			"the tenant runner, fair arbiter and per-tenant namespaces",
		shape: func(short bool) shape { return scenarioShape(kvTenantsScenario(0, short)) },
		run:   func(o runOpts) *sample { return runScenario(kvTenantsScenario(o.seed, o.short), o) },
	},
	{
		name: "paper_rate",
		why: "the paper's 2-node injection-rate rig, 100k jam_iput messages posted then drained: " +
			"one warm channel, so the per-call path and the sender backlog do all the work",
		shape: paperRateShape,
		run:   runPaperRate,
	},
}

// lookupWorkload finds a workload by name.
func lookupWorkload(name string) (*benchWorkload, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(names, ", "))
}

// simSeed maps a benchmark seed to the 64-bit seed the simulation is
// given (splitmix64), so nearby seeds give unrelated inputs.
func simSeed(seed uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func meshWideScenario(seed uint64, short bool) workload.Scenario {
	nodes, shards := 64, 8
	if short {
		nodes, shards = 12, 4
	}
	sc := workload.DefaultScenario(workload.AllToAll, nodes)
	sc.Shards, sc.Rounds, sc.Mix = shards, 1, workload.DefaultMix()
	return finishScenario(sc, seed)
}

func meshSteadyScenario(seed uint64, short bool) workload.Scenario {
	sc := workload.DefaultScenario(workload.AllToAll, 8)
	sc.Rounds, sc.Mix = 120, workload.DefaultMix()
	if short {
		sc.Rounds = 4
	}
	return finishScenario(sc, seed)
}

func kvTenantsScenario(seed uint64, short bool) workload.Scenario {
	sc := workload.OverloadScenario(8, 4)
	ph := &sc.Phases[0]
	ph.Mix, ph.Arg1Random, ph.Rounds = workload.KVStoreMix(), true, 80
	if short {
		ph.Rounds = 3
	}
	return finishScenario(sc, seed)
}

// finishScenario applies what every scenario workload shares: the seed
// and a sequential engine.
func finishScenario(sc workload.Scenario, seed uint64) workload.Scenario {
	sc.Seed = simSeed(seed)
	sc.Workers = 1
	return sc
}

// scenarioShape reads a single-phase scenario's replay shape.
func scenarioShape(sc workload.Scenario) shape {
	sh := shape{nodes: sc.Nodes, shards: sc.Shards, mix: sc.Mix, payload: sc.PayloadBytes, burst: sc.Burst}
	if len(sc.Phases) > 0 {
		ph := sc.Phases[0]
		if len(ph.Mix) > 0 {
			sh.mix = ph.Mix
		}
		sh.arg1 = ph.Arg1Random
	}
	return sh
}

// planned counts a single-phase all-to-all scenario's messages.
func planned(sc workload.Scenario) int {
	rounds := sc.Rounds
	if len(sc.Phases) > 0 && sc.Phases[0].Rounds > 0 {
		rounds = sc.Phases[0].Rounds
	}
	lanes := max(1, len(sc.Tenants))
	return lanes * sc.Nodes * (sc.Nodes - 1) * rounds * sc.Burst
}

// execClock timestamps handler executions, observed from outside
// through the OnExecuted hooks.
type execClock struct {
	n           int
	first, last time.Time
}

func (c *execClock) executed() {
	now := time.Now()
	if c.n == 0 {
		c.first = now
	}
	c.last = now
	c.n++
}

// setupDone unwinds a setup-only run out of its first handler execution.
type setupDone struct{}

// timedRun brackets one run: it reads the Go heap counters and starts
// the clock, and its finish fills in the host metrics and, when the run
// is traced, the setup/execute/drain spans.
type timedRun struct {
	o     runOpts
	clock execClock
	ms0   runtime.MemStats
	cpu0  float64
	t0    time.Time
	root  int
}

// cpuSeconds is this process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func startRun(o runOpts) *timedRun {
	r := &timedRun{o: o}
	if o.rec != nil {
		r.root = o.rec.begin("workload")
	}
	runtime.ReadMemStats(&r.ms0)
	r.cpu0 = cpuSeconds()
	r.t0 = time.Now()
	return r
}

// executed is the OnExecuted observer.
func (r *timedRun) executed() {
	r.clock.executed()
	if r.o.setupOnly {
		panic(setupDone{})
	}
}

// guard runs fn and reports whether a setup-only run stopped inside it.
// The simulation it abandons is never touched again.
func (r *timedRun) guard(fn func()) (stopped bool) {
	defer func() {
		if p := recover(); p != nil {
			if _, ok := p.(setupDone); !ok {
				panic(p)
			}
			stopped = true
		}
	}()
	fn()
	return false
}

func (r *timedRun) finish(s *sample) {
	end := time.Now()
	s.CPU = cpuSeconds() - r.cpu0
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	c := &r.clock
	first, last := c.first, c.last
	if c.n == 0 {
		first, last = end, end
	}
	s.Wall = end.Sub(r.t0).Seconds()
	s.Setup = first.Sub(r.t0).Seconds()
	if c.n > 1 && last.After(first) {
		s.Steady = float64(c.n-1) / last.Sub(first).Seconds()
	}
	s.AllocMB = float64(ms1.TotalAlloc-r.ms0.TotalAlloc) / (1 << 20)
	s.Counters.Mallocs = ms1.Mallocs - r.ms0.Mallocs
	s.Counters.GCs = ms1.NumGC - r.ms0.NumGC
	s.Counters.GCPauseNs = ms1.PauseTotalNs - r.ms0.PauseTotalNs
	if rec := r.o.rec; rec != nil {
		rec.add("setup", r.t0, first)
		rec.add("execute", first, last)
		rec.add("drain", last, end)
		rec.end(r.root, nil)
	}
}

// meshCounters copies the mesh-wide counters into s.
func meshCounters(s *sample, st core.MeshStats) {
	c := &s.Counters
	c.Channels, c.JamBinds, c.JamHits = st.Channels, st.JamBinds, st.JamHits
	c.Sent, c.CreditStalls = st.Sent, st.CreditStalls
	c.Batches, c.BatchedFrames = st.Batches, st.BatchedFrames
}

// runScenario runs one workload.Run scenario, timing it from outside
// through Scenario.OnExecuted.
func runScenario(sc workload.Scenario, o runOpts) *sample {
	sc.Interpreter = o.interp
	s := &sample{Planned: planned(sc)}
	r := startRun(o)
	sc.OnExecuted = func(int, uint64, error) { r.executed() }
	var res *workload.Result
	var err error
	stopped := r.guard(func() { res, err = workload.Run(sc) })
	r.finish(s)
	if stopped {
		s.SetupOnly = true
		return s
	}
	if err != nil {
		// A loss-ledger mismatch or a failed run: nothing it did counts.
		s.Err, s.Failed = err.Error(), s.Planned
		return s
	}
	s.Out = outputs{Digest: fmt.Sprintf("%016x", res.Digest), Injections: res.Injections,
		SimNs: int64(res.SimTime)}
	for _, nr := range res.PerNode {
		s.Failed += nr.Errors
	}
	s.Failed += res.Lost
	for _, t := range res.Tenants {
		s.Failed += t.Dropped
		switch t.Name {
		case "gold":
			s.Out.Gold = t.GoodputPerSec
		case "bronze":
			s.Out.Bronze = t.GoodputPerSec
		}
	}
	meshCounters(s, res.Mesh)
	return s
}

// The paper_rate rig: the paper's Fig. 8/10 injection-rate setup of
// perf.InjectionRate (2 nodes, injected jam_iput, 64 B payload, LLC
// stashing on, 4 banks x 8 slots, credits), built here from the tc API so
// the benchmark can hook the receiver and hold the tc.System.
const (
	rateWarmup  = 50
	rateMsgs    = 100_000
	rateShort   = 2_000
	ratePayload = 64
	rateBanks   = 4
	rateSlots   = 8
)

func paperRateShape(bool) shape {
	return shape{nodes: 2, mix: []workload.ElementMix{{Pkg: "tcbench", Elem: "jam_iput", Weight: 1}},
		payload: ratePayload, burst: 1}
}

// rateKeys draws the Indirect Put keys (1..30000, as the paper rig's)
// from the seed.
func rateKeys(seed uint64, n int) []uint64 {
	keys := make([]uint64, n)
	x := simSeed(seed)
	for i := range keys {
		x = simSeed(x)
		keys[i] = x%30000 + 1
	}
	return keys
}

// rateNodeConfig is the rig's node template for a seed.
func rateNodeConfig(seed uint64, interp bool) core.NodeConfig {
	nc := core.DefaultNodeConfig()
	nc.Stash = true
	nc.Seed = simSeed(seed)
	nc.Interpreter = interp
	return nc
}

func runPaperRate(o runOpts) *sample {
	iters := rateMsgs
	if o.short {
		iters = rateShort
	}
	total := rateWarmup + iters
	keys := rateKeys(o.seed, total)
	payload := make([]byte, ratePayload)
	for i := range payload {
		payload[i] = byte(i*31 + 7)
	}
	s := &sample{Planned: total}
	r := startRun(o)
	fail := func(err error) *sample {
		r.finish(s)
		s.Err, s.Failed = err.Error(), s.Planned
		return s
	}
	pkg, err := tcapp.Build("tcbench")
	if err != nil {
		return fail(err)
	}
	elem, ok := pkg.Element("jam_iput")
	if !ok {
		return fail(fmt.Errorf("tcbench has no jam_iput"))
	}
	frame, err := core.InjectedFrameLen(elem, ratePayload)
	if err != nil {
		return fail(err)
	}
	nc := rateNodeConfig(o.seed, o.interp)
	sys, err := tc.NewSystem(2,
		tc.WithNodeConfig(nc),
		tc.WithPerNode(func(i int, c core.NodeConfig) core.NodeConfig {
			if i == 1 {
				c.Seed ^= 0x5a5a
			}
			return c
		}),
		tc.WithOrdered(true),
		tc.WithGeometry(mailbox.Geometry{Banks: rateBanks, Slots: rateSlots, FrameSize: frame}),
		tc.WithCredits(true),
		tc.WithConfig(func(c *core.MeshConfig) { c.Cluster.Seed = nc.Seed }),
	)
	if err != nil {
		return fail(err)
	}
	if err := sys.InstallPackage(pkg); err != nil {
		return fail(err)
	}
	ab, err := sys.Channel(0, 1)
	if err != nil {
		return fail(err)
	}
	if _, err := sys.Channel(1, 0); err != nil {
		return fail(err)
	}
	fn, err := sys.Func(0, "tcbench", "jam_iput")
	if err != nil {
		return fail(err)
	}

	var digest uint64
	handlerErrs, processed := 0, 0
	var tStart, tEnd sim.Time
	sys.Node(1).OnExecuted = func(ret uint64, _ sim.Duration, err error) {
		r.executed()
		if err == nil {
			digest = digest*1099511628211 + ret + 1
		}
	}
	ab.Recv.OnError = func(*mailbox.Delivery, error) { handlerErrs++ }
	ab.Recv.OnProcessed = func(*mailbox.Delivery, sim.Time) {
		processed++
		if processed == rateWarmup {
			tStart = sys.Now()
		}
		if processed == total {
			tEnd = sys.Now()
		}
	}
	issueErrs := 0
	payloadOpt := tc.Payload(payload)
	for i := 0; i < total; i++ {
		if fn.Call(1, [2]uint64{keys[i], 0}, payloadOpt).IssueErr() != nil {
			issueErrs++
		}
	}
	stopped := r.guard(sys.Run)
	r.finish(s)
	if stopped {
		s.SetupOnly = true
		return s
	}

	s.Out = outputs{Digest: fmt.Sprintf("%016x", digest), Injections: processed - handlerErrs,
		SimNs: int64(sys.Now())}
	if w := tEnd.Sub(tStart).Seconds(); processed == total && w > 0 {
		s.Out.SimRate = float64(iters) / w
	}
	s.Failed = issueErrs + handlerErrs + (total - issueErrs - processed)
	meshCounters(s, sys.Stats())
	s.Counters.HoldsVM = true
	for i := 0; i < sys.Nodes(); i++ {
		s.Counters.VMCompiles += sys.Node(i).VM.JITCompiles
		s.Counters.VMDeopts += sys.Node(i).VM.JITDeopts
	}
	return s
}
