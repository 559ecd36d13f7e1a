package workload

import (
	"reflect"
	"testing"

	"twochains/internal/sim"
)

// goldenRun pins one scenario's observable outcome: the fabric-wide
// digest, the exact simulated finish time, and the executed-injection
// count. The expectations were captured on the pre-PR-3 implementation
// (container/heap engine, per-message heap allocation everywhere), so
// they prove the allocation-free hot path is a pure host-side
// optimization: pooling, the 4-ary event heap, the decoded-jam cache,
// and the lazily mapped address spaces change neither message order nor
// simulated timing by a single tick.
//
// If an intentional model change moves these numbers, re-capture them in
// one dedicated commit — never alongside a performance change, or the
// equivalence evidence is lost.
type goldenRun struct {
	pattern Pattern
	nodes   int
	burst   int
	seed    uint64

	digest  uint64
	simTime int64
	inj     int
	swapped bool
	hotNode int
}

// Two seed/shape points per pattern: the benchmark shape (8 nodes, burst
// 8, default seed) and a smaller off-default shape on a different seed.
var goldenRuns = []goldenRun{
	{Fanout, 8, 8, 0x7c2c2021, 0xdc88806bb77ecbe0, 63237690, 112, false, -1},
	{AllToAll, 8, 8, 0x7c2c2021, 0x269bfefd7c3223c0, 64640105, 896, false, -1},
	{Hotspot, 8, 8, 0x7c2c2021, 0xfc58e0defda2e9b0, 70037311, 784, true, 0},
	{Fanout, 6, 4, 0x51edba5e, 0xf0015dbce33297d0, 22211178, 40, false, -1},
	{AllToAll, 6, 4, 0x51edba5e, 0x37a43f99ad3f3b80, 22825178, 240, false, -1},
	{Hotspot, 6, 4, 0x51edba5e, 0x441fa5f0335082e0, 22588284, 200, true, -2},
}

// TestGoldenDigests pins bit-identical digests and simulated times for
// fixed seeds across all three workload patterns.
func TestGoldenDigests(t *testing.T) {
	for _, g := range goldenRuns {
		g := g
		t.Run(string(g.pattern), func(t *testing.T) {
			sc := DefaultScenario(g.pattern, g.nodes)
			sc.Rounds = 2
			sc.Burst = g.burst
			sc.Seed = g.seed
			res, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if res.Digest != g.digest {
				t.Errorf("digest = %#x, want %#x", res.Digest, g.digest)
			}
			if int64(res.SimTime) != g.simTime {
				t.Errorf("simulated time = %d, want %d", int64(res.SimTime), g.simTime)
			}
			if res.Injections != g.inj {
				t.Errorf("injections = %d, want %d", res.Injections, g.inj)
			}
			if res.Swapped != g.swapped {
				t.Errorf("swapped = %v, want %v", res.Swapped, g.swapped)
			}
			if g.hotNode != -2 && res.HotNode != g.hotNode {
				t.Errorf("hot node = %d, want %d", res.HotNode, g.hotNode)
			}
			var errs int
			for _, nr := range res.PerNode {
				errs += nr.Errors
			}
			if errs != 0 {
				t.Errorf("%d handler errors in a golden run", errs)
			}
		})
	}
}

// TestGoldenRepeatable re-runs one scenario twice in the same process:
// pooled frames, futures, and engine queues must leave no state behind
// that could couple two runs.
func TestGoldenRepeatable(t *testing.T) {
	sc := DefaultScenario(Hotspot, 8)
	sc.Rounds = 2
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest || a.SimTime != b.SimTime || a.Injections != b.Injections {
		t.Fatalf("back-to-back runs diverged: %#x/%d/%d vs %#x/%d/%d",
			a.Digest, a.SimTime, a.Injections, b.Digest, b.SimTime, b.Injections)
	}
}

// scenarioGolden pins the full outcome of a composed scenario — open
// loop, multi-phase with a swap, fail/rejoin, and the multi-tenant
// paths — as absolute values, not as one run compared with another:
// the fabric digest, simulated finish time, injections, the loss
// ledger, every phase result, and every tenant result (goodput, p99
// latency, drop and defer counts included).
type scenarioGolden struct {
	name    string
	sc      func() Scenario
	digest  uint64
	simTime sim.Duration
	inj     int
	lost    int
	phases  []PhaseResult
	tenants []TenantResult
}

var scenarioGoldens = []scenarioGolden{
	{"kvstore", func() Scenario { return KVStoreScenario(6) }, 0x89868007ab3b2d69, 81188342, 240, 0,
		[]PhaseResult{{Name: "kv-openloop", Planned: 240, Executed: 240, End: 81188342}},
		nil},
	{"multiphase", func() Scenario { return MultiPhaseScenario(6) }, 0xe9f0cea09b0ca05c, 290868007, 540, 0,
		[]PhaseResult{
			{Name: "warmup", Planned: 180, Executed: 180, End: 23448445},
			{Name: "swap", Planned: 60, Executed: 60, End: 65446890, Swapped: true},
			{Name: "drain", Planned: 300, Executed: 300, End: 290868007},
		},
		nil},
	{"failrejoin", failRejoinScenario, 0xdca1691f566c908, 60460445, 644, 76,
		[]PhaseResult{
			{Name: "steady", Planned: 240, Executed: 240, End: 20614884},
			{Name: "failing", Planned: 240, Executed: 164, End: 38050446},
			{Name: "drain", Planned: 240, Executed: 240, End: 60460445},
		},
		nil},
	{"tenants", func() Scenario { return tenantScenario(4) }, 0x8f9865e927d8d80, 76486394, 192, 0,
		nil,
		[]TenantResult{
			{Name: "gold", Weight: 3, Planned: 96, Serviced: 96,
				GoodputPerSec: 1.6606617885995186e+06, RatePerSec: 1.2551251925930774e+06,
				P99Latency: 2430937, LastService: 57808279,
				Phases: []PhaseResult{{Name: "phase0", Planned: 96, Executed: 96, End: 76486394}}},
			{Name: "bronze", Weight: 1, Planned: 96, Serviced: 96,
				GoodputPerSec: 1.2800934620454623e+06, RatePerSec: 1.2551251925930774e+06,
				P99Latency: 2088252, LastService: 75280728,
				Phases: []PhaseResult{{Name: "phase0", Planned: 96, Executed: 96, End: 76486394}}},
		}},
	{"tenant-sweep", func() Scenario { return tenantSweepScenario(0x7c2c2021) }, 0xfed485b184a9abb0, 279296148, 1440, 0,
		nil,
		[]TenantResult{
			{Name: "gold", Weight: 3, Planned: 864, Serviced: 864,
				GoodputPerSec: 4.377975961201823e+06, RatePerSec: 3.0934905697303065e+06,
				P99Latency: 2385736, LastService: 279296148,
				Phases: []PhaseResult{
					{Name: "warm", Planned: 288, Executed: 288, End: 84897310},
					{Name: "burst", Planned: 576, Executed: 576, End: 279296148},
				}},
			{Name: "bronze", Weight: 1, Planned: 576, Serviced: 576,
				GoodputPerSec: 3.8855379871375198e+06, RatePerSec: 2.0623270464868709e+06,
				P99Latency: 2465443, LastService: 148242020,
				Phases: []PhaseResult{{Name: "phase0", Planned: 576, Executed: 576, End: 279296148}}},
		}},
	{"admit-drop", func() Scenario { return admissionScenario(false) }, 0x9c0f49b28f998718, 7819024, 12, 0,
		nil,
		[]TenantResult{
			{Name: "metered", Weight: 1, Planned: 48, Serviced: 12, Dropped: 36,
				GoodputPerSec: 1.5347183996365787e+06, RatePerSec: 1.5347183996365787e+06,
				P99Latency: 1502000, LastService: 7819024,
				Phases: []PhaseResult{{Name: "phase0", Planned: 48, Executed: 48, End: 7819024}}},
		}},
	{"admit-defer", func() Scenario { return admissionScenario(true) }, 0xcc600e1491a60b60, 248423360, 48, 0,
		nil,
		[]TenantResult{
			{Name: "metered", Weight: 1, Planned: 48, Serviced: 48, Deferred: 9,
				GoodputPerSec: 193955.82963884855, RatePerSec: 193218.5443430119,
				P99Latency: 1502000, LastService: 247479027,
				Phases: []PhaseResult{{Name: "phase0", Planned: 48, Executed: 48, End: 248423360}}},
		}},
}

// TestScenarioGoldens checks every composed scenario against its pinned
// outcome. Like goldenRuns, the values change only in a dedicated commit
// for an intentional model change.
func TestScenarioGoldens(t *testing.T) {
	for _, g := range scenarioGoldens {
		g := g
		t.Run(g.name, func(t *testing.T) {
			res, err := Run(g.sc())
			if err != nil {
				t.Fatal(err)
			}
			if res.Digest != g.digest || res.SimTime != g.simTime || res.Injections != g.inj || res.Lost != g.lost {
				t.Errorf("digest/simtime/injections/lost = %#x/%d/%d/%d, want %#x/%d/%d/%d",
					res.Digest, int64(res.SimTime), res.Injections, res.Lost,
					g.digest, int64(g.simTime), g.inj, g.lost)
			}
			if !reflect.DeepEqual(res.Phases, g.phases) {
				t.Errorf("phases:\n%+v\nwant\n%+v", res.Phases, g.phases)
			}
			if !reflect.DeepEqual(res.Tenants, g.tenants) {
				t.Errorf("tenants:\n%+v\nwant\n%+v", res.Tenants, g.tenants)
			}
		})
	}
}
