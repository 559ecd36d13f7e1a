// Package workload is the composable scenario driver: it provisions a
// sharded many-node tc.System, generates a deterministic traffic plan,
// drives batched frame injection through pre-resolved tc.Func handles
// (one handle per sender and element, bound once per destination), and
// reports simulated injections/sec plus a run digest.
//
// # The Traffic/Phase model
//
// A Scenario is data all the way down. Its traffic shape is a Traffic —
// a deterministic plan generator over a Topology view — selected by
// registered name, so new shapes are registrations, not forks of this
// package. The three paper patterns (fanout, alltoall, hotspot) are
// registered implementations whose plans are bit-identical to the
// pre-registry driver; golden tests pin their digests and simulated
// times per seed.
//
// A scenario runs as a sequence of Phases, each with its own traffic,
// element mix, arrival process, and optional RIED swap (a RIED — a
// relocatable interface distribution — is the shared library a process
// loads to set up interfaces and data objects; swapping one mid-run is
// the paper's remote-linking dynamic update). Phase k+1 opens when
// every message phase k planned has executed, so warmup -> swap ->
// drain pipelines are scenario data rather than bespoke driver code. A
// phaseless scenario is one closed-loop phase of Scenario.Pattern — the
// legacy surface, unchanged.
//
// Mix entries name a package and an element (Pkg + Elem), resolved
// through the tcapp registry: a phase can mix tcbench Indirect Puts
// with kvstore puts and histo reduces, and the driver installs every
// referenced package and sizes mailbox frames for the largest message.
//
// # Lanes
//
// Run drives every scenario as a list of lanes, each one traffic
// program with its own phase list, phase cursor, and progress count. A
// single-tenant scenario is one implicit default lane: base tc.Func
// handles over base channels, progress counted at handler start
// (Node.OnExecuted). A multi-tenant scenario (Scenario.Tenants) has one
// lane per tenant instead: handles in the tenant's package namespace,
// progress counted at service completion by the lane's channel
// receivers, and per-call latency samples. Every sender of every lane
// issues through one step, and every refusal takes one policy: a
// *core.NodeDownError loses the burst, an admission Drop drops it, and
// an admission Defer re-issues it after the bucket's hint.
//
// # Arrivals
//
// Closed-loop (default): each sender self-clocks — burst k+1 is issued
// from the completion of burst k, so the fabric runs loaded but
// bounded. Open-loop (Arrival{Kind: Poisson, RatePerSec: r}): each
// sender's bursts arrive at exponential interarrival gaps drawn at plan
// time, independent of completions — the offered-load shape, where
// queueing (credit stalls) is part of the measurement.
//
// All randomness — element choice, argument words, hotspot target and
// skew, arrival gaps — flows from one sim RNG seeded by Scenario.Seed;
// plans are generated before simulation starts, so equal seeds give
// bit-identical digests and simulated times for any registered Traffic.
package workload

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"twochains/internal/core"
	"twochains/internal/fabric"
	"twochains/internal/sim"
	"twochains/internal/tc"
	"twochains/internal/tcapp"
	"twochains/internal/tenant"
)

// Pattern names a registered traffic shape.
type Pattern string

// The built-in traffic shapes.
const (
	Fanout   Pattern = "fanout"
	AllToAll Pattern = "alltoall"
	Hotspot  Pattern = "hotspot"
	Ring     Pattern = "ring"
)

// Patterns lists the three paper patterns in canonical order (the mesh
// experiments iterate these; TrafficNames lists everything registered,
// including Ring and third-party shapes).
func Patterns() []Pattern { return []Pattern{Fanout, AllToAll, Hotspot} }

// DefaultPkg is the package a mix entry with an empty Pkg refers to.
const DefaultPkg = "tcbench"

// ElementMix is one entry of a phase's traffic mix: an element of a
// tcapp-registered package with a selection weight, sent either as an
// Injected Function (code travels) or a Local Function (IDs travel).
type ElementMix struct {
	// Pkg is the tcapp-registered application package ("" = tcbench).
	Pkg    string
	Elem   string
	Weight int
	Local  bool
}

// ArrivalKind selects a phase's arrival process.
type ArrivalKind uint8

const (
	// ClosedLoop self-clocks: a sender's next burst is issued from the
	// completion of its previous one.
	ClosedLoop ArrivalKind = iota
	// Poisson issues each sender's bursts at exponential interarrival
	// gaps (drawn deterministically at plan time), independent of
	// completions — open-loop offered load.
	Poisson
	// MMPP issues bursts from a two-state Markov-modulated Poisson
	// process: a base state at RatePerSec and a burst state at
	// BurstRatePerSec, with exponential sojourns of mean MeanBase /
	// MeanBurst — open-loop bursty offered load.
	MMPP
	// Trace replays recorded inter-arrival gaps (Arrival.Trace)
	// cyclically per sender — open-loop measured load, no randomness.
	Trace
)

// Arrival is a phase's arrival process. Kinds beyond the built-ins can
// be added with RegisterArrival; validation enumerates the registry.
type Arrival struct {
	Kind ArrivalKind
	// RatePerSec is the mean burst arrival rate per sender in simulated
	// seconds (Poisson; the MMPP base state).
	RatePerSec float64
	// BurstRatePerSec is the MMPP burst state's arrival rate.
	BurstRatePerSec float64
	// MeanBase/MeanBurst are the MMPP mean state sojourns.
	MeanBase  sim.Duration
	MeanBurst sim.Duration
	// Trace holds recorded inter-arrival gaps for Kind Trace, replayed
	// cyclically by every sender.
	Trace []sim.Duration
}

// Swap is a remote-linking dynamic update expressed as data: when the
// owning phase opens, the RIED elements of the named app are
// re-installed on Node (replacing name bindings) and every channel into
// it re-runs the namespace exchange. In-flight Func handles re-bind on
// their next call.
type Swap struct {
	Node int
	// App is the tcapp-registered application whose RIEDs are
	// reinstalled ("" = tcbench).
	App string
}

// Fail schedules a hard node failure as phase data: At after the
// owning phase opens, Node is torn down — its channels are severed,
// queued sends into and out of it fail fast with *core.NodeDownError,
// sender-side prepared-jam caches for it are invalidated, and every
// message addressed to it that had been issued but not yet executed is
// accounted as lost (Result.Lost). The node's own unissued plan is
// abandoned and counted lost too.
type Fail struct {
	Node int
	At   sim.Duration
}

// Rejoin brings a previously failed node back when the owning phase
// opens. The node returns with empty channel state: channels into and
// out of it rebuild lazily on the next call, re-running the namespace
// exchange, under the same serial-hold discipline as initial lazy
// channel creation.
type Rejoin struct {
	Node int
}

// Phase is one stage of a scenario. Zero fields inherit the scenario-
// level value (Traffic from Pattern, Rounds/Burst/Mix/Arrival from the
// scenario); a phase opens when the previous phase's plan has fully
// executed.
type Phase struct {
	Name    string
	Traffic string // registered traffic name ("" = Scenario.Pattern)
	Rounds  int
	Burst   int
	Mix     []ElementMix
	Arrival *Arrival
	Swap    *Swap
	// Fail schedules node failures at offsets from phase open; Rejoin
	// brings nodes failed in earlier phases back when this phase opens.
	// Both are rejected in multi-tenant mode: every tenant lane runs its
	// own copy of its phase list on its own timeline, so which lane owns
	// a failure has no single answer.
	Fail   []Fail
	Rejoin []Rejoin
	// Arg1Random additionally draws the second argument word per message
	// (value-carrying app workloads use it; the legacy patterns leave
	// args[1] zero and consume no extra randomness).
	Arg1Random bool
}

// ChaosSpec perturbs the fabric: the scenario's backend is wrapped in
// the "chaos" transport, which delays every put by a deterministic
// pseudo-random duration in [MinDelay, MaxDelay] (preserving per-
// destination order) and optionally misadvertises the backend's
// lookahead. LookaheadScale in (0, 1) shrinks the advertised bound — a
// legal stressor that forces smaller conservative windows;
// LookaheadBoost > 0 inflates it past the truth, an adversarial
// contract violation the parallel engine must catch loudly (speculation
// rollback + diagnostic panic), never absorb silently.
type ChaosSpec struct {
	MinDelay       sim.Duration
	MaxDelay       sim.Duration
	LookaheadScale float64
	LookaheadBoost sim.Duration
}

// Scenario parameterizes one workload run.
type Scenario struct {
	// Pattern is the traffic shape of a phaseless scenario, and the
	// default Traffic of every phase.
	Pattern Pattern
	// Nodes is the mesh size; Shards the fabric-shard count (0 = default).
	Nodes, Shards int
	// Workers > 1 runs the simulation on the multi-core conservative
	// engine: each fabric shard's event loop on its own worker goroutine,
	// with digests and simulated times bit-identical to Workers <= 1.
	// The driver holds the engine serial across every zero-lookahead
	// global action (lazy channel creation, phase barriers, RIED
	// hot-swaps) and lets the steady state run in parallel windows.
	// With Workers > 1 a scenario-level OnExecuted hook may be invoked
	// from concurrent shard workers and must be safe for that.
	Workers int
	// Speculation is the parallel engine's speculative-window budget: how
	// far past the conservative horizon a shard may run when the
	// reachability bound allows it. Zero keeps windows strictly
	// conservative; results are bit-identical either way. Ignored unless
	// Workers > 1.
	Speculation sim.Duration
	// Burst is the messages per batched injection; Rounds the traffic
	// generator's repetition knob.
	Burst, Rounds int
	PayloadBytes  int
	// Mix is the default element mix; empty selects DefaultMix.
	Mix  []ElementMix
	Seed uint64
	// Timing enables the cache/CPU cost model (required for meaningful
	// rates; functional tests turn it off for speed).
	Timing bool
	// Interpreter forces every node's VM through the reference interpret
	// loop instead of the compiled jam translations. Results and digests
	// must be bit-identical either way — the JIT equivalence sweep runs
	// each scenario under both settings and compares.
	Interpreter bool
	// HotSkew is the probability a hotspot burst targets the hot node
	// (0 = default 0.8). Ignored by other patterns.
	HotSkew float64
	// DisableSwap turns off the hotspot pattern's built-in mid-phase
	// RIED hot-swap (phase-level Swap entries are unaffected).
	DisableSwap bool
	// Backend selects the fabric transport ("" = default "simnet").
	Backend string
	// Chaos, when set, wraps Backend in the chaos failure-injection
	// transport with these perturbation bounds. Equal seeds still give
	// bit-identical results at every worker count: the perturbation RNG
	// is split per port and consumed in issue order on the issuing shard.
	Chaos *ChaosSpec
	// Arrival is the default arrival process (closed loop unless set).
	Arrival Arrival
	// Phases composes the run; empty means one closed-loop phase of
	// Pattern.
	Phases []Phase
	// Tenants switches the run into multi-tenant mode: each entry replaces
	// the default lane with a lane of its own, running its Phases (or the
	// scenario-level phases when unset) through a per-tenant package
	// namespace, weighted-fair servicing at every receiver, and optional
	// token-bucket admission. Result.Tenants reports per-tenant goodput,
	// drop/defer counts, and p99 simulated latency. Empty keeps the
	// single-tenant surface bit-identical to previous releases.
	Tenants []TenantSpec

	// OnExecuted observes every handler execution (node index, return
	// value, error) — the hook equivalence tests use to compare injected
	// execution against a native oracle.
	OnExecuted func(node int, ret uint64, err error)
}

// DefaultScenario returns a ready-to-run scenario of the given pattern.
func DefaultScenario(p Pattern, nodes int) Scenario {
	return Scenario{
		Pattern:      p,
		Nodes:        nodes,
		Burst:        8,
		Rounds:       3,
		PayloadBytes: 64,
		Seed:         0x7c2c2021,
		Timing:       true,
	}
}

// DefaultMix is the standard mixed workload: mostly injected code, some
// Local Function traffic.
func DefaultMix() []ElementMix {
	return []ElementMix{
		{Elem: "jam_sssum", Weight: 3},
		{Elem: "jam_iput", Weight: 2},
		{Elem: "jam_sssum", Weight: 1, Local: true},
	}
}

// NodeResult is one node's view of the run.
type NodeResult struct {
	// Sent is the number of messages the plan addressed to this node;
	// Executed the handlers that ran; Errors the handler failures.
	Sent     int
	Executed int
	Errors   int
	// Digest folds this node's return values in execution order.
	Digest uint64
}

// PhaseResult is one phase's slice of the run.
type PhaseResult struct {
	Name string
	// Planned is the phase's planned message count; Executed the handler
	// completions (including faults) attributed to it in plan order.
	Planned  int
	Executed int
	// End is the simulated time the phase's plan finished executing.
	End sim.Duration
	// Swapped reports that the phase performed a RIED swap (its own Swap
	// entry or the hotspot pattern's built-in one).
	Swapped bool
}

// Result reports one scenario run.
type Result struct {
	Scenario   Scenario
	Shards     int    // fabric shards actually used
	Workers    int    // engine workers actually used (1 = sequential)
	Windows    uint64 // parallel windows executed (0 = stayed serial)
	Injections int    // handlers executed fabric-wide
	// Lost counts planned messages a node failure made unexecutable:
	// issued-but-not-executed backlog into the dead node, queued sends
	// out of it, its own unissued plan, and bursts refused at issue while
	// it was down. Executed + handler errors + Lost always equals the
	// planned total — every planned message is accounted for exactly once.
	Lost       int
	SimTime    sim.Duration // simulated wall time of the whole run
	RatePerSec float64      // simulated injections per simulated second
	Digest     uint64       // order-insensitive fold of per-node digests
	PerNode    []NodeResult
	Phases     []PhaseResult
	Mesh       core.MeshStats
	Swapped    bool // a RIED swap fired during the run
	HotNode    int  // skew target of the last hotspot phase (-1 otherwise)
	// Tenants reports per-tenant outcomes of a multi-tenant run (nil
	// otherwise); in that mode per-phase results live on each tenant and
	// the top-level Phases slice is empty.
	Tenants []TenantResult
	// OverlapWindow is the interval every tenant was still being serviced
	// in: the minimum over tenants of their last service stamp. Per-tenant
	// goodput is measured inside it, so weight shares compare servicing
	// rates, not drain tails.
	OverlapWindow sim.Duration
}

// burst is one planned batched send.
type burst struct {
	dst   int
	mix   ElementMix
	args  [][2]uint64
	local bool
	// at is the open-loop issue offset from phase open (closed loop: 0).
	at sim.Duration
}

// phasePlan is one phase's deterministic, pre-generated traffic
// schedule: one burst queue per sender, plus the phase's planned
// dynamic updates.
type phasePlan struct {
	spec   *phaseSpec
	bursts [][]burst // indexed by sender
	sent   []int     // messages addressed per destination
	total  int
	// hotNode is the phase's skew target (-1 none).
	hotNode int
	// swapNode/swapApp plan the SwapAtHalf trigger (-1 none); the
	// executed-count threshold is armed when the phase opens, and
	// swapFired keeps the trigger one-shot independent of any open-time
	// Swap entry the same phase performed.
	swapNode    int
	swapApp     string
	swapTrigger int
	swapFired   bool
}

// buildPlan runs the phase's Traffic generator, consuming the RNG in
// the generator's emission order so the schedule is a pure function of
// the scenario, then draws open-loop arrival gaps (senders ascending).
func buildPlan(sc *Scenario, topo Topology, spec *phaseSpec, rng *sim.RNG) (*phasePlan, error) {
	pp := &phasePlan{
		spec:     spec,
		bursts:   make([][]burst, topo.Nodes),
		sent:     make([]int, topo.Nodes),
		hotNode:  -1,
		swapNode: -1,
	}
	tr, ok := newTraffic(spec.traffic)
	if !ok {
		return nil, &ScenarioError{Field: spec.at("Traffic"), Reason: fmt.Sprintf("unknown traffic %q", spec.traffic)}
	}
	p := &Planner{topo: topo, sc: sc, spec: spec, rng: rng, pp: pp}
	if err := tr.Generate(p); err != nil {
		return nil, err
	}
	if p.err != nil {
		return nil, p.err
	}
	if gen := arrivalKinds[spec.arrival.Kind]; gen != nil && gen.gen != nil {
		for src := range pp.bursts {
			if len(pp.bursts[src]) == 0 {
				continue
			}
			ats := gen.gen(&spec.arrival, rng, len(pp.bursts[src]))
			for i := range pp.bursts[src] {
				pp.bursts[src][i].at = ats[i]
			}
		}
	}
	return pp, nil
}

// runner drives one scenario run as a list of lanes: it owns the phase
// barriers, the swap and failure machinery, the issue step every sender
// shares, and — under the parallel engine — the serial holds that
// bracket every zero-lookahead global action.
type runner struct {
	sc  *Scenario
	sys *tc.System
	res *Result

	lanes []*lane
	// execLane counts its progress at handler start, from Node.OnExecuted:
	// the default lane of a single-tenant run, nil under tenants.
	execLane *lane
	// laneByView routes tenant channel creations to the owning lane.
	laneByView map[string]*lane

	payload []byte

	// failed is the senders' fast stop check; errMu guards the errors
	// behind it (issue failures can surface on any shard worker).
	failed   atomic.Bool
	errMu    sync.Mutex
	issueErr error
	swapErr  error

	// Parallel-engine serial holds. Phase barriers, the open phases'
	// not-yet-created channels, and an armed mid-phase swap each pin the
	// engine serial; the holds release at deterministic simulation events
	// (every lane on its final phase, last channel created, swap fired),
	// so the window schedule — and with it the whole run — is a pure
	// function of the scenario. Channel creation order matters down to
	// node memory layout (a region's address feeds the cache model), which
	// is why creations must happen in exact global event order.
	sharded      bool
	phasesHold   bool
	pendingLanes int // lanes short of their final phase while phasesHold is up
	pairsHold    bool
	swapHold     bool
	missing      map[chanKey]bool // open phases' channels still to create

	// Failure injection. issued counts successfully issued messages per
	// destination (atomics: senders on any shard write them); lost tallies
	// messages a failure made unexecutable; down marks nodes currently
	// failed (written and read only under serial execution: doFail and
	// openPhase). An armed Fail pins the engine serial until it fires —
	// teardown is a zero-lookahead global action.
	issued []atomic.Int64
	lost   atomic.Int64
	down   []bool
}

// lane is one traffic program: its phase plans and cursor, progress
// counters, and handle caches. The default lane issues through base
// handles over base channels; a tenant lane through the tenant's
// package namespace view, with per-shard sample stores (service stamps
// on the receiving shard, latency samples on the issuing shard — each
// slice is only ever appended to from its owning shard's worker).
type lane struct {
	ten   *tenant.Tenant // nil for the default lane
	view  string         // the channels' namespace view ("" = base)
	specs []phaseSpec
	plans []*phasePlan
	cum   []int // cumulative planned messages through each phase
	phase int   // index of the open phase

	// progress counts resolved messages (executed, serviced, dropped, or
	// lost); each phase barrier opens when it reaches the phase's
	// cumulative plan.
	progress  atomic.Int64
	phaseExec []atomic.Int64
	phases    []PhaseResult

	fns    []map[[2]string]*tc.Func // per sender: (pkg, elem) -> handle
	chains []*sender                // per sender: the open closed-loop chain

	svc  [][]sim.Time     // tenant service-completion stamps, per dst shard
	lat  [][]sim.Duration // tenant issue-to-delivery samples, per src shard
	errs []int64          // tenant receiver-side failures, per dst shard
}

// chanKey identifies a channel an open phase still needs.
type chanKey struct {
	src, dst int
	view     string
}

// fail records the first issue error and stops every sender.
func (r *runner) fail(err error) {
	r.errMu.Lock()
	if r.issueErr == nil {
		r.issueErr = err
	}
	r.errMu.Unlock()
	r.failed.Store(true)
}

// onChannel observes every lazy channel creation: tenant-view channels
// get their lane's receiver instrumentation attached, and the serial
// hold releases once the open phases' channel set is complete.
func (r *runner) onChannel(src, dst int, view string, ch *core.Channel) {
	if l := r.laneByView[view]; l != nil {
		r.hookTenantChannel(l, dst, ch)
	}
	k := chanKey{src, dst, view}
	if r.pairsHold && r.missing[k] {
		delete(r.missing, k)
		r.maybeReleasePairs()
	}
}

// maybeReleasePairs drops the channel-creation hold once no channel is
// still missing.
func (r *runner) maybeReleasePairs() {
	if len(r.missing) == 0 {
		r.pairsHold = false
		r.sys.ReleaseSerial()
	}
}

// fnFor resolves (and caches) the lane's handle for one element on one
// sender — the bind-once/call-many idiom.
func (r *runner) fnFor(l *lane, src int, pkg, elem string) (*tc.Func, error) {
	m := l.fns[src]
	if m == nil {
		m = map[[2]string]*tc.Func{}
		l.fns[src] = m
	}
	key := [2]string{pkg, elem}
	if f, ok := m[key]; ok {
		return f, nil
	}
	var f *tc.Func
	var err error
	if l.ten != nil {
		f, err = r.sys.FuncFor(l.ten.Name, src, pkg, elem)
	} else {
		f, err = r.sys.Func(src, pkg, elem)
	}
	if err != nil {
		return nil, err
	}
	m[key] = f
	return f, nil
}

// performSwap re-installs the app's RIED elements on the node
// (replacing name bindings) and re-runs the namespace exchange on every
// channel into it — the remote-linking dynamic update, performed while
// traffic may still be in flight.
func (r *runner) performSwap(l *lane, node int, app string) {
	if app == "" {
		app = DefaultPkg
	}
	err := func() error {
		spkg, err := tcapp.BuildRieds(app)
		if err != nil {
			return err
		}
		for _, e := range spkg.Elements {
			if e.Kind != core.ElemRied {
				continue
			}
			if _, err := r.sys.InstallRied(node, e.Ried, true); err != nil {
				return err
			}
		}
		r.sys.RefreshNames(node)
		return nil
	}()
	if err != nil && r.swapErr == nil {
		r.swapErr = err
	}
	r.res.Swapped = true
	l.phases[l.phase].Swapped = true
}

// openPhase performs the lane's phase-open actions (rejoins, the planned
// swap), arms the phase's SwapAtHalf trigger against the swap node's
// current executed count, pins the engine serial while the phase has
// channels to create, a swap armed, or a failure pending, and starts
// its senders.
func (r *runner) openPhase(l *lane) {
	pp := l.plans[l.phase]
	// Rejoins happen at phase open, before the missing-channel scan:
	// channels into the rejoined node rebuild lazily under the same
	// serial hold as initial lazy creation.
	for _, rj := range pp.spec.rejoin {
		if err := r.sys.RejoinNode(rj.Node); err != nil {
			r.fail(err)
			return
		}
		r.down[rj.Node] = false
	}
	if pp.spec.swap != nil {
		r.performSwap(l, pp.spec.swap.Node, pp.spec.swap.App)
	}
	if pp.swapNode >= 0 {
		pp.swapTrigger = r.res.PerNode[pp.swapNode].Executed + pp.sent[pp.swapNode]/2
	}
	if r.sharded {
		if pp.swapNode >= 0 && !pp.swapFired && !r.swapHold {
			r.swapHold = true
			r.sys.HoldSerial()
		}
		for src := range pp.bursts {
			for i := range pp.bursts[src] {
				k := chanKey{src, pp.bursts[src][i].dst, l.view}
				// Pairs touching a down node are skipped: no channel will be
				// created while it is down, so waiting on one would pin the
				// engine serial forever. Their bursts fail at issue and are
				// accounted lost.
				if r.down[src] || r.down[k.dst] {
					continue
				}
				if !r.missing[k] && !r.sys.Mesh().HasChannelView(src, k.dst, k.view) {
					r.missing[k] = true
				}
			}
		}
		if len(r.missing) > 0 && !r.pairsHold {
			r.pairsHold = true
			r.sys.HoldSerial()
		}
	}
	// An armed failure pins the engine serial until it fires: teardown
	// severs channels and fails queued sends fabric-wide, a zero-
	// lookahead global action.
	for _, fl := range pp.spec.fail {
		f := fl
		r.sys.HoldSerial()
		r.sys.After(f.Node, f.At, func() {
			r.doFail(l, f.Node)
			r.sys.ReleaseSerial()
		})
	}
	for src := range pp.bursts {
		if len(pp.bursts[src]) == 0 {
			continue
		}
		if pp.spec.arrival.openLoop() {
			r.armOpen(l, src, pp.bursts[src])
		} else {
			r.armClosed(l, src, pp.bursts[src])
		}
	}
}

// advance opens the lane's phases until the open one still has
// unresolved plan (or the lane is out of phases). It runs at start and
// each time the lane's progress moves. While a non-final phase of any
// lane is open the engine is held serial (the phase barrier is a zero-
// lookahead global action: the moment the count trips, senders on every
// shard arm at the same instant).
func (r *runner) advance(l *lane) {
	for l.phase < len(l.plans)-1 && int(l.progress.Load()) >= l.cum[l.phase] {
		l.phases[l.phase].End = sim.Duration(r.sys.Now())
		l.phase++
		r.openPhase(l)
		if l.phase == len(l.plans)-1 && r.phasesHold {
			r.pendingLanes--
			if r.pendingLanes == 0 {
				r.phasesHold = false
				r.sys.ReleaseSerial()
			}
		}
	}
}

// done resolves n messages of the lane's open phase: executed or
// serviced (faults included), or dropped by admission.
func (r *runner) done(l *lane, n int) {
	l.phaseExec[l.phase].Add(int64(n))
	r.settle(l, n)
}

// settle folds n resolved messages into the lane's progress. Phase
// advancement only ever runs while the engine is serial (the multi-phase
// hold pins it); once every lane is on its final phase this is pure
// atomics.
func (r *runner) settle(l *lane, n int) {
	l.progress.Add(int64(n))
	r.advance(l)
}

// lose accounts n planned messages a failure made unexecutable. Lost
// messages advance the phase barrier like executions — they are
// resolved plan, just resolved by loss — but count toward no phase's
// Executed.
func (r *runner) lose(l *lane, n int) {
	r.lost.Add(int64(n))
	r.settle(l, n)
}

// doFail tears node down mid-run on behalf of the lane whose phase armed
// the failure. It executes serially (the armed Fail holds the engine)
// so the loss ledger is exact: every planned message lands in exactly
// one of executed, handler-errored, or lost.
func (r *runner) doFail(l *lane, node int) {
	// Abandon the dead node's own unissued plan first, so the FailPending
	// callbacks below (which re-fire issue chains synchronously) see the
	// chain already dead.
	var abandoned int
	if s := l.chains[node]; s != nil && !s.dead {
		s.dead = true
		for _, b := range s.queue[s.next:] {
			abandoned += len(b.args)
		}
	}
	r.down[node] = true
	// Channels touching the dead node will not be created while it is
	// down: drop them from the missing set, or the channel-creation hold
	// would pin the engine serial forever.
	if r.pairsHold {
		for k := range r.missing {
			if k.src == node || k.dst == node {
				delete(r.missing, k)
			}
		}
		r.maybeReleasePairs()
	}
	outbound, err := r.sys.FailNode(node)
	if err != nil {
		r.fail(err)
		return
	}
	// Inbound backlog: issued to the node but never completed — queued
	// sends FailNode just failed, frames delivered but not yet serviced,
	// and traffic still on the wire (its delivery writes memory but the
	// stopped receiver never services it).
	nr := &r.res.PerNode[node]
	backlog := int(r.issued[node].Load()) - nr.Executed - nr.Errors
	if n := abandoned + outbound + backlog; n > 0 {
		r.lose(l, n)
	}
}

// sender is one lane's issue state on one source node for one phase.
// Closed-loop arms also keep their chain position here, so a node
// failure can abandon (and account) the dead node's unissued remainder.
type sender struct {
	r       *runner
	l       *lane
	src     int
	shard   int
	eng     *sim.Engine
	issueAt sim.Time // engine time of the latest issue attempt

	queue []burst
	next  int
	dead  bool
}

func (r *runner) newSender(l *lane, src int) *sender {
	return &sender{r: r, l: l, src: src, shard: r.sys.ShardOf(src), eng: r.sys.EngineFor(src)}
}

// issueOutcome is what one issue attempt did with its burst.
type issueOutcome uint8

const (
	inFlight issueOutcome = iota // on the wire: the completion callback will run
	settled                      // resolved at issue: lost to a down node, or dropped
	held                         // deferred with a re-issue armed, or the run stopped
)

// issue sends burst b from the sender's node: resolve the lane's handle,
// build the call options, issue, and send every refusal through one
// policy — a *core.NodeDownError loses the burst, an admission Drop
// drops it, an admission Defer runs retry after the bucket's hint on
// the issuing shard's engine (engine-local, so it is safe inside
// concurrent windows). onDone, when set, observes the completion; a
// tenant lane without one still records its latency sample.
func (s *sender) issue(b *burst, onDone func(tc.Result), retry func()) issueOutcome {
	r, l := s.r, s.l
	if r.failed.Load() {
		return held
	}
	fn, err := r.fnFor(l, s.src, b.mix.Pkg, b.mix.Elem)
	if err != nil {
		r.fail(err)
		return held
	}
	// Func.Call consumes its options synchronously: the option slice
	// lives on the stack, so the issue path allocates none.
	var buf [3]tc.CallOpt
	opts := append(buf[:0], tc.Burst(b.args), tc.Payload(r.payload))
	if b.local {
		opts = append(opts, tc.Local())
	}
	s.issueAt = s.eng.Now()
	fu := fn.Call(b.dst, b.args[0], opts...)
	if err := fu.IssueErr(); err != nil {
		// A failed-at-issue future never armed, so recycling is on us.
		fu.Release()
		var nd *core.NodeDownError
		var ae *tenant.AdmissionError
		switch {
		case errors.As(err, &nd):
			r.lose(l, len(b.args))
			return settled
		case errors.As(err, &ae) && ae.Deferred:
			s.eng.After(ae.RetryAfter, retry)
			return held
		case errors.As(err, &ae):
			r.done(l, len(b.args))
			return settled
		}
		r.fail(err)
		return held
	}
	r.issued[b.dst].Add(int64(len(b.args)))
	if onDone == nil && l.lat != nil {
		at := s.issueAt
		onDone = func(res tc.Result) { l.sample(s.shard, res, at) }
	}
	if onDone != nil {
		fu.Done(onDone)
		// The future is not touched after its Done callback: hand it back
		// to the pool so senders recycle one future per in-flight burst.
		fu.Release()
	}
	// Otherwise fire and forget: the unobserved future recycles itself.
	return inFlight
}

// armClosed installs the self-clocked issue chain: the sender fires its
// next burst when the previous one completes delivery, and straight away
// when the previous one was lost or dropped at issue. One completion
// callback per chain, not per burst: fire is the self-clock, onDone
// re-arms it.
func (r *runner) armClosed(l *lane, src int, queue []burst) {
	s := r.newSender(l, src)
	s.queue = queue
	l.chains[src] = s
	var fire func()
	onDone := func(res tc.Result) {
		l.sample(s.shard, res, s.issueAt)
		fire()
	}
	fire = func() {
		for s.next < len(s.queue) && !s.dead {
			switch s.issue(&s.queue[s.next], onDone, fire) {
			case inFlight:
				s.next++
				return
			case held:
				return
			}
			s.next++
		}
	}
	r.sys.After(src, 0, fire)
}

// armOpen schedules every burst at its pre-drawn arrival offset from
// now — open-loop offered load, independent of completions. A deferred
// burst re-issues at the retry hint while later bursts keep their own
// schedule.
func (r *runner) armOpen(l *lane, src int, queue []burst) {
	s := r.newSender(l, src)
	for i := range queue {
		b := &queue[i]
		var send func()
		send = func() { s.issue(b, nil, send) }
		r.sys.After(src, b.at, send)
	}
}

// newSystem builds the scenario's system with the mailbox frame sized
// for its largest message.
func newSystem(sc *Scenario, frame int) (*tc.System, error) {
	opts := []tc.SystemOpt{
		tc.WithSeed(sc.Seed),
		tc.WithTiming(sc.Timing),
		tc.WithBackend(sc.Backend),
		tc.WithWorkers(sc.Workers),
		tc.WithSpeculation(sc.Speculation),
		tc.WithConfig(func(c *core.MeshConfig) { c.Geometry.FrameSize = frame }),
	}
	if sc.Shards > 0 {
		opts = append(opts, tc.WithShards(sc.Shards))
	}
	if sc.Interpreter {
		opts = append(opts, tc.WithInterpreter())
	}
	if sc.Chaos != nil {
		opts = append(opts, tc.WithChaos(fabric.ChaosConfig{
			MinDelay:       sc.Chaos.MinDelay,
			MaxDelay:       sc.Chaos.MaxDelay,
			LookaheadScale: sc.Chaos.LookaheadScale,
			LookaheadBoost: sc.Chaos.LookaheadBoost,
		}))
	}
	return tc.NewSystem(sc.Nodes, opts...)
}

// addLane registers the lane's tenant (if any) and installs its apps in
// name order, so package IDs are a pure function of the scenario.
func (r *runner) addLane(ls *laneSpec, apps []string, pkgs map[string]*core.Package) error {
	nodes, shards := r.sc.Nodes, r.res.Shards
	l := &lane{
		specs:     ls.specs,
		plans:     make([]*phasePlan, len(ls.specs)),
		cum:       make([]int, len(ls.specs)),
		phaseExec: make([]atomic.Int64, len(ls.specs)),
		phases:    make([]PhaseResult, len(ls.specs)),
		fns:       make([]map[[2]string]*tc.Func, nodes),
		chains:    make([]*sender, nodes),
	}
	install := r.sys.InstallPackage
	if ls.ten == nil {
		r.execLane = l
	} else {
		tn, err := r.sys.AddTenant(*ls.ten)
		if err != nil {
			return err
		}
		l.ten, l.view = tn, tn.Name
		l.svc = make([][]sim.Time, shards)
		l.lat = make([][]sim.Duration, shards)
		l.errs = make([]int64, shards)
		r.laneByView[l.view] = l
		install = func(pkg *core.Package) error { return r.sys.InstallPackageFor(tn.Name, pkg) }
	}
	for _, name := range apps {
		if err := install(pkgs[name]); err != nil {
			return err
		}
	}
	r.lanes = append(r.lanes, l)
	return nil
}

// Run executes the scenario and reports the result. The run is fully
// deterministic: equal scenarios produce equal results. Validation and
// plan-building failures are *ScenarioError.
func Run(sc Scenario) (*Result, error) {
	if err := sc.validateScalars(); err != nil {
		return nil, err
	}
	// resolvePhases and resolveLanes both default and validate — one pass
	// covers what Validate would check.
	base, err := sc.resolvePhases()
	if err != nil {
		return nil, err
	}
	laneSpecs, err := sc.resolveLanes(base)
	if err != nil {
		return nil, err
	}
	// Package builds and frame geometry cover every lane's phases.
	pkgs := map[string]*core.Package{}
	apps := make([][]string, len(laneSpecs))
	var all []phaseSpec
	for i := range laneSpecs {
		if apps[i], err = packagesFor(laneSpecs[i].specs, pkgs); err != nil {
			return nil, err
		}
		all = append(all, laneSpecs[i].specs...)
	}
	frame, err := frameSizeFor(pkgs, all, sc.PayloadBytes)
	if err != nil {
		return nil, err
	}
	sys, err := newSystem(&sc, frame)
	if err != nil {
		return nil, err
	}

	topo := Topology{Nodes: sc.Nodes, Shards: sys.Mesh().Cfg.Shards, ShardOf: sys.ShardOf}
	res := &Result{
		Scenario: sc,
		Shards:   topo.Shards,
		Workers:  sys.Workers(),
		PerNode:  make([]NodeResult, sc.Nodes),
		HotNode:  -1,
	}
	r := &runner{
		sc:         &sc,
		sys:        sys,
		res:        res,
		laneByView: map[string]*lane{},
		payload:    make([]byte, sc.PayloadBytes),
		sharded:    sys.Sharded(),
		missing:    map[chanKey]bool{},
		issued:     make([]atomic.Int64, sc.Nodes),
		down:       make([]bool, sc.Nodes),
	}
	for i := range r.payload {
		r.payload[i] = byte(i*31 + 7)
	}
	// Lanes register in declared order (dense tenant IDs = arbiter
	// classes).
	for i := range laneSpecs {
		if err := r.addLane(&laneSpecs[i], apps[i], pkgs); err != nil {
			return nil, err
		}
	}
	sys.Mesh().OnChannelCreated = r.onChannel

	// Plans: lanes in order, phases in order, one seeded RNG — the whole
	// schedule is generated before the simulation starts, a pure function
	// of the scenario.
	for _, l := range r.lanes {
		total := 0
		for j := range l.specs {
			pp, err := buildPlan(&sc, topo, &l.specs[j], sys.RNG())
			if err != nil {
				return nil, err
			}
			if l.ten != nil && pp.swapNode >= 0 {
				return nil, &ScenarioError{Field: l.specs[j].trafficField(),
					Reason: "mid-phase RIED swaps are not supported in tenant phases"}
			}
			l.plans[j] = pp
			total += pp.total
			l.cum[j] = total
			l.phases[j].Name = l.specs[j].name
			l.phases[j].Planned = pp.total
			if pp.hotNode >= 0 {
				res.HotNode = pp.hotNode
			}
			for dst, n := range pp.sent {
				res.PerNode[dst].Sent += n
			}
		}
	}

	for i := 0; i < sc.Nodes; i++ {
		node := i
		sys.Node(i).OnExecuted = func(ret uint64, _ sim.Duration, err error) {
			// Per-node state belongs to the executing node's shard; the
			// progress tallies are atomic; everything phase-advancing or
			// swap-triggering only ever runs while the engine is serial
			// (the corresponding holds pin it).
			nr := &res.PerNode[node]
			if err != nil {
				nr.Errors++
			} else {
				nr.Executed++
				nr.Digest = nr.Digest*1099511628211 + ret + 1
			}
			if sc.OnExecuted != nil {
				sc.OnExecuted(node, ret, err)
			}
			// Tenant lanes count at service completion instead (their
			// receiver hooks attribute each service to its tenant).
			l := r.execLane
			if l == nil {
				return
			}
			pp := l.plans[l.phase]
			if node == pp.swapNode && !pp.swapFired && nr.Executed >= pp.swapTrigger {
				pp.swapFired = true
				r.performSwap(l, pp.swapNode, pp.swapApp)
				if r.swapHold {
					r.swapHold = false
					r.sys.ReleaseSerial()
				}
			}
			r.done(l, 1)
		}
	}

	if r.sharded {
		// The phase barrier is a zero-lookahead global action: hold the
		// engine serial until every lane's final phase opens.
		for _, l := range r.lanes {
			if len(l.plans) > 1 {
				r.pendingLanes++
			}
		}
		if r.pendingLanes > 0 {
			r.phasesHold = true
			sys.HoldSerial()
		}
	}
	for _, l := range r.lanes {
		r.openPhase(l)
		// Chain straight through leading zero-traffic phases (e.g. a
		// swap-only opener): nothing will resolve to advance past them.
		r.advance(l)
	}
	sys.Run()
	sys.Mesh().OnChannelCreated = nil
	if r.issueErr != nil {
		return nil, r.issueErr
	}
	if r.swapErr != nil {
		return nil, r.swapErr
	}
	return r.finish()
}

// finish folds the quiesced run into the Result and checks the ledger:
// every planned message resolved exactly once.
func (r *runner) finish() (*Result, error) {
	res := r.res
	res.SimTime = sim.Duration(r.sys.Now())
	res.Windows = r.sys.Windows()
	res.Mesh = r.sys.Stats()
	res.Lost = int(r.lost.Load())
	var errSum int
	for _, nr := range res.PerNode {
		res.Injections += nr.Executed
		res.Digest += nr.Digest // order-insensitive across nodes
		errSum += nr.Errors
	}
	if secs := res.SimTime.Seconds(); secs > 0 {
		res.RatePerSec = float64(res.Injections) / secs
	}
	planned, resolved := 0, 0
	for _, l := range r.lanes {
		for j := range l.phases {
			l.phases[j].Executed = int(l.phaseExec[j].Load())
		}
		l.phases[l.phase].End = res.SimTime
		planned += l.cum[len(l.cum)-1]
		resolved += int(l.progress.Load())
	}
	if r.execLane != nil {
		res.Phases = r.execLane.phases
	} else {
		r.reportTenants()
	}
	if resolved != planned {
		return res, fmt.Errorf("workload: %s resolved %d of %d planned messages (%d executed, %d errors, %d lost)",
			r.sc.Pattern, resolved, planned, res.Injections, errSum, res.Lost)
	}
	return res, nil
}
