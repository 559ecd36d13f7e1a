// Package twochains_test hosts the testing.B entry points that regenerate
// the paper's evaluation: one benchmark per figure (Fig. 5-14 plus the
// §VII-A convergence observation), each running a representative point of
// the corresponding sweep and reporting the figure's headline metric, and
// a set of micro-benchmarks for the framework's hot paths.
//
// The full sweeps (every size on the x-axis of every figure) are produced
// by `go run ./cmd/tcperf -e all`; these benchmarks exist so `go test
// -bench .` exercises every experiment through the standard tooling.
package twochains_test

import (
	"runtime"
	"testing"

	"twochains/internal/asm"
	"twochains/internal/core"
	"twochains/internal/cpusim"
	"twochains/internal/isa"
	"twochains/internal/linker"
	"twochains/internal/mailbox"
	"twochains/internal/perf"
	"twochains/internal/sim"
	"twochains/internal/tc"
	"twochains/internal/workload"
)

// run executes one benchmark point per b.N iteration batch: the simulated
// workload is deterministic, so a single run per invocation suffices; b.N
// repetitions measure the simulator's host-side cost while the reported
// custom metrics carry the paper-relevant simulated results.
func runPingPong(b *testing.B, cfg perf.RunConfig) *perf.RunResult {
	b.Helper()
	var res *perf.RunResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = perf.PingPong(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

func runRate(b *testing.B, cfg perf.RunConfig) *perf.RunResult {
	b.Helper()
	var res *perf.RunResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = perf.InjectionRate(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

func baseCfg(kind perf.WorkloadKind, elem string, payload int) perf.RunConfig {
	cfg := perf.DefaultRunConfig()
	cfg.Warmup, cfg.Iters = 30, 150
	cfg.Kind = kind
	cfg.Elem = elem
	cfg.PayloadBytes = payload
	return cfg
}

// BenchmarkFig05AmPutLatency: AM put (without-execution) vs UCX put
// one-way latency at 4KB.
func BenchmarkFig05AmPutLatency(b *testing.B) {
	cfg := baseCfg(perf.WkData, "", 4096)
	var ucxUs float64
	for i := 0; i < b.N; i++ {
		res, err := perf.UcxPutLatency(cfg, 4096)
		if err != nil {
			b.Fatal(err)
		}
		ucxUs = res.Samples.Median().Microseconds()
	}
	am := runPingPong(b, cfg)
	b.ReportMetric(am.Samples.Median().Microseconds(), "am_us")
	b.ReportMetric(ucxUs, "ucxput_us")
}

// BenchmarkFig06AmPutBandwidth: streaming bandwidth of both paths at 4KB.
func BenchmarkFig06AmPutBandwidth(b *testing.B) {
	cfg := baseCfg(perf.WkData, "", 4096)
	cfg.Iters = 300
	var ucxMBs float64
	for i := 0; i < b.N; i++ {
		res, err := perf.UcxPutBandwidth(cfg, 4096)
		if err != nil {
			b.Fatal(err)
		}
		ucxMBs = res.Bandwidth / 1e6
	}
	am := runRate(b, cfg)
	b.ReportMetric(am.Bandwidth/1e6, "am_MBps")
	b.ReportMetric(ucxMBs, "ucxput_MBps")
}

// BenchmarkFig07InjectedVsLocalLatency: Indirect Put at 1 integer, both
// invocation methods.
func BenchmarkFig07InjectedVsLocalLatency(b *testing.B) {
	loc := runPingPong(b, baseCfg(perf.WkLocal, "jam_iput", 4))
	inj := runPingPong(b, baseCfg(perf.WkInjected, "jam_iput", 4))
	b.ReportMetric(loc.Samples.Median().Microseconds(), "local_us")
	b.ReportMetric(inj.Samples.Median().Microseconds(), "injected_us")
}

// BenchmarkFig08InjectedVsLocalRate: message rates of both methods.
func BenchmarkFig08InjectedVsLocalRate(b *testing.B) {
	loc := runRate(b, baseCfg(perf.WkLocal, "jam_iput", 4))
	inj := runRate(b, baseCfg(perf.WkInjected, "jam_iput", 4))
	b.ReportMetric(loc.Rate, "local_msgs")
	b.ReportMetric(inj.Rate, "injected_msgs")
}

// BenchmarkFig09StashLatency: Indirect Put latency with stashing on/off.
func BenchmarkFig09StashLatency(b *testing.B) {
	non := baseCfg(perf.WkInjected, "jam_iput", 64)
	non.NodeCfg.Stash = false
	st := baseCfg(perf.WkInjected, "jam_iput", 64)
	nres := runPingPong(b, non)
	sres := runPingPong(b, st)
	b.ReportMetric(nres.Samples.Median().Microseconds(), "nonstash_us")
	b.ReportMetric(sres.Samples.Median().Microseconds(), "stash_us")
}

// BenchmarkFig10StashRate: Indirect Put message rate with stashing on/off.
func BenchmarkFig10StashRate(b *testing.B) {
	non := baseCfg(perf.WkInjected, "jam_iput", 64)
	non.NodeCfg.Stash = false
	st := baseCfg(perf.WkInjected, "jam_iput", 64)
	nres := runRate(b, non)
	sres := runRate(b, st)
	b.ReportMetric(nres.Rate, "nonstash_msgs")
	b.ReportMetric(sres.Rate, "stash_msgs")
}

// BenchmarkFig11TailLatency: loaded-system tails, Indirect Put at 256
// integers.
func BenchmarkFig11TailLatency(b *testing.B) {
	mk := func(stash bool) perf.RunConfig {
		cfg := baseCfg(perf.WkInjected, "jam_iput", 1024)
		cfg.Iters = 1200
		cfg.Stress = true
		cfg.NodeCfg.Stash = stash
		return cfg
	}
	non := runPingPong(b, mk(false))
	st := runPingPong(b, mk(true))
	b.ReportMetric(non.Samples.Tail().Microseconds(), "nonstash_tail_us")
	b.ReportMetric(st.Samples.Tail().Microseconds(), "stash_tail_us")
}

// BenchmarkFig12TailLatencySum: loaded-system tails, Server-Side Sum 2KB.
func BenchmarkFig12TailLatencySum(b *testing.B) {
	mk := func(stash bool) perf.RunConfig {
		cfg := baseCfg(perf.WkInjected, "jam_sssum", 2048)
		cfg.Iters = 1200
		cfg.Stress = true
		cfg.NodeCfg.Stash = stash
		return cfg
	}
	non := runPingPong(b, mk(false))
	st := runPingPong(b, mk(true))
	b.ReportMetric(non.Samples.TailSpread()*100, "nonstash_spread_pct")
	b.ReportMetric(st.Samples.TailSpread()*100, "stash_spread_pct")
}

// BenchmarkFig13WfeCycles: WFE vs polling on Indirect Put.
func BenchmarkFig13WfeCycles(b *testing.B) {
	mk := func(mode cpusim.WaitMode) perf.RunConfig {
		cfg := baseCfg(perf.WkInjected, "jam_iput", 64)
		cfg.WaitMode = mode
		return cfg
	}
	poll := runPingPong(b, mk(cpusim.Poll))
	wfe := runPingPong(b, mk(cpusim.WFE))
	b.ReportMetric((poll.CyclesA+poll.CyclesB)/(wfe.CyclesA+wfe.CyclesB), "cycle_reduction_x")
	b.ReportMetric(wfe.Samples.Median().Microseconds(), "wfe_us")
	b.ReportMetric(poll.Samples.Median().Microseconds(), "poll_us")
}

// BenchmarkFig14WfeCyclesSum: WFE vs polling on Server-Side Sum at 2KB.
func BenchmarkFig14WfeCyclesSum(b *testing.B) {
	mk := func(mode cpusim.WaitMode) perf.RunConfig {
		cfg := baseCfg(perf.WkInjected, "jam_sssum", 2048)
		cfg.WaitMode = mode
		return cfg
	}
	poll := runPingPong(b, mk(cpusim.Poll))
	wfe := runPingPong(b, mk(cpusim.WFE))
	b.ReportMetric((poll.CyclesA+poll.CyclesB)/(wfe.CyclesA+wfe.CyclesB), "cycle_reduction_x")
}

// BenchmarkSSSumConvergence: §VII-A text — Server-Side Sum injected/local
// gap at 64 integers.
func BenchmarkSSSumConvergence(b *testing.B) {
	loc := runPingPong(b, baseCfg(perf.WkLocal, "jam_sssum", 256))
	inj := runPingPong(b, baseCfg(perf.WkInjected, "jam_sssum", 256))
	gap := (float64(inj.Samples.Median()) - float64(loc.Samples.Median())) /
		float64(loc.Samples.Median()) * 100
	b.ReportMetric(gap, "gap_pct")
}

// --- mesh workload benchmarks (sharded many-node fabric) ---

// runMesh executes one workload scenario per b.N batch and reports the
// simulated injection rate. The scenario is seeded, so the reported
// metrics are identical across runs.
func runMesh(b *testing.B, p workload.Pattern, nodes int) {
	b.Helper()
	b.ReportAllocs()
	sc := workload.DefaultScenario(p, nodes)
	sc.Rounds = 2
	var res *workload.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = workload.Run(sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.RatePerSec, "sim_inj_per_sec")
	b.ReportMetric(float64(res.Injections), "msgs")
	b.ReportMetric(res.SimTime.Microseconds(), "sim_us")
}

// BenchmarkMeshFanout: node 0 broadcasts batched bursts to 7 peers.
func BenchmarkMeshFanout(b *testing.B) { runMesh(b, workload.Fanout, 8) }

// BenchmarkMeshAllToAll: dense exchange over the full 8-node channel mesh.
func BenchmarkMeshAllToAll(b *testing.B) { runMesh(b, workload.AllToAll, 8) }

// BenchmarkMeshHotspot: skewed traffic with a mid-run ried hot-swap on
// the hot node.
func BenchmarkMeshHotspot(b *testing.B) { runMesh(b, workload.Hotspot, 8) }

// runMeshScale executes one large-mesh scenario per b.N batch on the
// multi-core conservative engine and reports the simulated injection
// rate plus the worker count actually engaged. The digests are
// bit-identical at every worker count (the parallel property tests pin
// it), so the sim_* metrics are comparable across the W1/WN pairs and
// the wall-clock ns/op difference is the engine speedup.
func runMeshScale(b *testing.B, p workload.Pattern, nodes, rounds, shards, workers int) {
	runMeshScaleSpec(b, p, nodes, rounds, shards, workers, 0)
}

// runMeshScaleSpec is runMeshScale with a speculative-window budget; the
// sim_* metrics stay bit-identical to the conservative (and sequential)
// twins — speculation only changes wall-clock.
func runMeshScaleSpec(b *testing.B, p workload.Pattern, nodes, rounds, shards, workers int, spec sim.Duration) {
	b.Helper()
	b.ReportAllocs()
	sc := workload.DefaultScenario(p, nodes)
	sc.Rounds = rounds
	sc.Shards = shards
	sc.Workers = workers
	sc.Speculation = spec
	var res *workload.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = workload.Run(sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.RatePerSec, "sim_inj_per_sec")
	b.ReportMetric(float64(res.Injections), "msgs")
	b.ReportMetric(res.SimTime.Microseconds(), "sim_us")
	b.ReportMetric(float64(res.Workers), "workers")
}

// BenchmarkMeshAllToAll64: dense exchange over a 64-node, 8-shard mesh
// on the parallel engine (workers = NumCPU); the W1 twin below is the
// same simulation on one core — the pair records the engine speedup.
func BenchmarkMeshAllToAll64(b *testing.B) {
	runMeshScale(b, workload.AllToAll, 64, 2, 8, runtime.NumCPU())
}

// BenchmarkMeshAllToAll64W1: the sequential twin of MeshAllToAll64.
func BenchmarkMeshAllToAll64W1(b *testing.B) {
	runMeshScale(b, workload.AllToAll, 64, 2, 8, 1)
}

// BenchmarkMeshAllToAll64Spec: MeshAllToAll64 with speculative windows
// (a two-lookahead budget); the sim_* metrics must match the
// conservative twin exactly.
func BenchmarkMeshAllToAll64Spec(b *testing.B) {
	runMeshScaleSpec(b, workload.AllToAll, 64, 2, 8, runtime.NumCPU(), 2*sim.Microsecond)
}

// BenchmarkMeshFanout64: 64-node broadcast (single sender; receiver-side
// parallelism only).
func BenchmarkMeshFanout64(b *testing.B) {
	runMeshScale(b, workload.Fanout, 64, 2, 8, runtime.NumCPU())
}

// BenchmarkMeshFanout64Spec: the speculative twin of MeshFanout64 — the
// asymmetric (lookahead-poor) shape where the reachability bound lets
// the leading shard run past the horizon.
func BenchmarkMeshFanout64Spec(b *testing.B) {
	runMeshScaleSpec(b, workload.Fanout, 64, 2, 8, runtime.NumCPU(), 2*sim.Microsecond)
}

// BenchmarkMeshHotspot64: 64-node skewed traffic with the mid-run RIED
// hot-swap (the swap holds the engine serial until it fires).
func BenchmarkMeshHotspot64(b *testing.B) {
	runMeshScale(b, workload.Hotspot, 64, 2, 8, runtime.NumCPU())
}

// BenchmarkMeshChaos64: the 64-node exchange under chaos fabric
// perturbation (every put delayed 20-120ns from the deterministic
// per-port RNG, order preserved) plus a mid-run node failure and
// rejoin. Records what the robustness machinery costs on the parallel
// engine; sim_lost rides the history so the loss ledger is visible in
// the trajectory.
func BenchmarkMeshChaos64(b *testing.B) {
	b.ReportAllocs()
	sc := workload.DefaultScenario(workload.AllToAll, 64)
	sc.Rounds = 2
	sc.Shards = 8
	sc.Workers = runtime.NumCPU()
	sc.Chaos = &workload.ChaosSpec{MinDelay: 20 * sim.Nanosecond, MaxDelay: 120 * sim.Nanosecond}
	sc.Phases = []workload.Phase{
		{Name: "steady"},
		{Name: "failing", Fail: []workload.Fail{{Node: 5, At: sim.Microsecond}}},
		{Name: "drain", Rejoin: []workload.Rejoin{{Node: 5}}},
	}
	var res *workload.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = workload.Run(sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.RatePerSec, "sim_inj_per_sec")
	b.ReportMetric(float64(res.Injections), "msgs")
	b.ReportMetric(float64(res.Lost), "sim_lost")
	b.ReportMetric(res.SimTime.Microseconds(), "sim_us")
	b.ReportMetric(float64(res.Workers), "workers")
}

// BenchmarkMeshAllToAll128: the 128-node, 16-shard exchange — the
// largest recorded point. Skipped under -short (bench-smoke) to keep
// the CI gate fast; bench-json records it.
func BenchmarkMeshAllToAll128(b *testing.B) {
	if testing.Short() {
		b.Skip("128-node mesh skipped in short mode")
	}
	runMeshScale(b, workload.AllToAll, 128, 2, 16, runtime.NumCPU())
}

// BenchmarkMeshAllToAll128W1: the sequential twin of MeshAllToAll128.
func BenchmarkMeshAllToAll128W1(b *testing.B) {
	if testing.Short() {
		b.Skip("128-node mesh skipped in short mode")
	}
	runMeshScale(b, workload.AllToAll, 128, 2, 16, 1)
}

// runScenario executes one composed scenario per b.N batch (same
// shape as runMesh, over an arbitrary Scenario).
func runScenario(b *testing.B, sc workload.Scenario) {
	b.Helper()
	b.ReportAllocs()
	var res *workload.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = workload.Run(sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.RatePerSec, "sim_inj_per_sec")
	b.ReportMetric(float64(res.Injections), "msgs")
	b.ReportMetric(res.SimTime.Microseconds(), "sim_us")
}

// BenchmarkKVStoreOpenLoop: the open-loop Poisson kvstore scenario —
// put/get/scan traffic over the tcapp kvstore application.
func BenchmarkKVStoreOpenLoop(b *testing.B) { runScenario(b, workload.KVStoreScenario(8)) }

// BenchmarkMultiPhaseMix: warmup -> RIED swap -> mixed drain across
// three application packages (tcbench + kvstore + histo reduce).
func BenchmarkMultiPhaseMix(b *testing.B) { runScenario(b, workload.MultiPhaseScenario(8)) }

// BenchmarkMultiTenantOverload: the stock two-tenant overload
// composition at 4x offered load — per-tenant namespaces, weighted-fair
// receivers, overlap-window goodput. Reports each tenant's goodput so
// the fair-share split rides the benchmark history alongside the rate.
func BenchmarkMultiTenantOverload(b *testing.B) {
	b.ReportAllocs()
	sc := workload.OverloadScenario(4, 4)
	var res *workload.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = workload.Run(sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.RatePerSec, "sim_inj_per_sec")
	b.ReportMetric(res.Tenants[0].GoodputPerSec, "gold_goodput_per_sec")
	b.ReportMetric(res.Tenants[1].GoodputPerSec, "bronze_goodput_per_sec")
	b.ReportMetric(res.SimTime.Microseconds(), "sim_us")
}

// --- framework micro-benchmarks (host-time, not simulated time) ---

// BenchmarkFramePack measures packing an injected frame.
func BenchmarkFramePack(b *testing.B) {
	pkg, err := core.BuildBenchPackage()
	if err != nil {
		b.Fatal(err)
	}
	elem, _ := pkg.Element("jam_iput")
	msg := &mailbox.Message{
		Kind:        mailbox.KindInjected,
		JamImage:    make([]byte, elem.Jam.ShippedSize()),
		GotTableLen: elem.Jam.GotTableLen(),
		TextLen:     elem.Jam.TextLen,
		Usr:         make([]byte, 256),
	}
	buf := make([]byte, msg.WireLen())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := msg.Pack(buf, len(buf), uint32(i+1), 0x100000); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}

// BenchmarkAssemble measures the assembler on the Indirect Put source.
func BenchmarkAssemble(b *testing.B) {
	src := core.JamIPutSrc
	for i := 0; i < b.N; i++ {
		if _, err := asm.Assemble("jam_iput.amc", src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildJam measures the link + GOT transform of a jam.
func BenchmarkBuildJam(b *testing.B) {
	obj, err := asm.Assemble("jam_iput.amc", core.JamIPutSrc)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linker.BuildJam(obj, "jam_iput"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInstrDecode measures raw instruction decode throughput.
func BenchmarkInstrDecode(b *testing.B) {
	code := isa.EncodeAll(make([]isa.Instr, 176))
	b.SetBytes(int64(len(code)))
	for i := 0; i < b.N; i++ {
		if _, err := isa.DecodeAll(code); err != nil {
			b.Fatal(err)
		}
	}
}

// benchInvokePath measures the host-side cost of issuing and fully
// simulating one inject through either per-call string resolution
// (Channel.Handle looks the Bound up by (pkg, elem) strings every call)
// or the pre-resolved tc.Func handle. The pair exists to pin the API
// redesign's performance claim: the bind-once handle path must not be
// slower than per-call string resolution.
func benchInvokePath(b *testing.B, handle bool) {
	b.Helper()
	sys, err := tc.NewSystem(2,
		tc.WithTiming(false),
		tc.WithGeometry(mailbox.Geometry{Banks: 1, Slots: 8, FrameSize: 2048}),
		tc.WithCredits(false))
	if err != nil {
		b.Fatal(err)
	}
	pkg, err := core.BuildBenchPackage()
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.InstallPackage(pkg); err != nil {
		b.Fatal(err)
	}
	fn, err := sys.Func(0, "tcbench", "jam_iput")
	if err != nil {
		b.Fatal(err)
	}
	ch, err := sys.Channel(0, 1)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64)
	// Steady-state call options are part of the bind-once setup: hoisting
	// the Payload option out of the loop is the documented idiom.
	payloadOpt := tc.Payload(payload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		args := [2]uint64{uint64(i%30000) + 1, 0}
		if handle {
			if res, ok := fn.Call(1, args, payloadOpt).Result(); ok && res.Err != nil {
				b.Fatal(res.Err)
			}
		} else {
			if err := ch.Handle("tcbench", "jam_iput").Send(mailbox.KindInjected, [][2]uint64{args}, false, payload, nil); err != nil {
				b.Fatal(err)
			}
		}
		sys.Run()
	}
}

// BenchmarkStringInject: per-call string resolution (Channel.Handle).
func BenchmarkStringInject(b *testing.B) { benchInvokePath(b, false) }

// BenchmarkFuncCall: bind-once/call-many handle path.
func BenchmarkFuncCall(b *testing.B) { benchInvokePath(b, true) }

// BenchmarkEndToEndInject measures host-side cost of one full simulated
// inject-execute round trip.
func BenchmarkEndToEndInject(b *testing.B) {
	cfg := baseCfg(perf.WkInjected, "jam_iput", 64)
	cfg.Warmup, cfg.Iters = 2, 10
	for i := 0; i < b.N; i++ {
		if _, err := perf.PingPong(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
