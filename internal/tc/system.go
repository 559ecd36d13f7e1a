package tc

import (
	"fmt"

	"twochains/internal/core"
	"twochains/internal/cpusim"
	"twochains/internal/fabric"
	"twochains/internal/linker"
	"twochains/internal/mailbox"
	"twochains/internal/sim"
	"twochains/internal/tenant"
)

// System is N simulated Two-Chains processes on one fabric backend. It
// subsumes the former Cluster/Mesh split: a cluster is a 2-node System.
type System struct {
	mesh *core.Mesh
	// futures is the system's future pool, one free list per fabric shard
	// (see Future's ownership rules): a future is taken, resolved, and
	// recycled on its source node's shard, so under the parallel engine
	// each list stays single-owner.
	futures [][]*Future
	// tenants and arbs are the multi-tenant serving state, created by the
	// first AddTenant: the tenant registry (issuer-owned admission
	// buckets) and one fair-service arbiter per receiving node
	// (receiver-shard-owned fair-queue state).
	tenants *tenant.Registry
	arbs    []*mailbox.FairArbiter
}

// SystemOpt adjusts the deployment template before the system is built.
type SystemOpt func(*core.MeshConfig)

// WithWorkers requests the multi-core conservative engine: each fabric
// shard's event loop runs on its own worker goroutine (up to n of them),
// synchronized so digests and simulated times stay bit-identical to
// single-engine execution. n <= 1 — the default — is exactly the
// sequential engine; backends without fabric.ShardedTransport support
// fall back to it too.
func WithWorkers(n int) SystemOpt {
	return func(c *core.MeshConfig) { c.Workers = n }
}

// WithSpeculation sets the parallel engine's speculative-window budget:
// how far past the conservative horizon a shard may run when the
// reachability bound allows it. Zero (the default) keeps windows strictly
// conservative; either way results stay bit-identical to the sequential
// engine. It has no effect without WithWorkers.
func WithSpeculation(d sim.Duration) SystemOpt {
	return func(c *core.MeshConfig) { c.Speculation = d }
}

// WithShards partitions the nodes across fabric shards (contiguous
// blocks; cross-shard traffic serializes through shared spine uplinks on
// backends that model topology).
func WithShards(n int) SystemOpt {
	return func(c *core.MeshConfig) { c.Shards = n }
}

// WithBackend selects the fabric transport by registered name
// ("simnet" is the default; "ideal" is the contention-free reference).
func WithBackend(name string) SystemOpt {
	return func(c *core.MeshConfig) { c.Cluster.Backend = name }
}

// WithSeed seeds both the fabric and the per-node stochastic models.
func WithSeed(seed uint64) SystemOpt {
	return func(c *core.MeshConfig) {
		c.Cluster.Seed = seed
		c.Node.Seed = seed
	}
}

// WithTiming toggles the cache/CPU cost model (functional tests turn it
// off for speed).
func WithTiming(on bool) SystemOpt {
	return func(c *core.MeshConfig) { c.Node.Timing = on }
}

// WithInterpreter forces every node's VM through the reference
// interpret loop instead of the compiled translations — the A/B switch
// of the JIT equivalence sweep. Results, costs, and digests must be
// bit-identical either way; only wall-clock speed differs.
func WithInterpreter() SystemOpt {
	return func(c *core.MeshConfig) { c.Node.Interpreter = true }
}

// WithOrdered selects the fabric write-order guarantee.
func WithOrdered(on bool) SystemOpt {
	return func(c *core.MeshConfig) { c.Cluster.Ordered = on }
}

// WithGeometry sets the per-channel mailbox shape.
func WithGeometry(g mailbox.Geometry) SystemOpt {
	return func(c *core.MeshConfig) { c.Geometry = g }
}

// WithCredits toggles bank-flag flow control on every channel.
func WithCredits(on bool) SystemOpt {
	return func(c *core.MeshConfig) { c.Credits = on }
}

// WithWaitMode selects the wait-episode cycle accounting on both sides.
func WithWaitMode(m cpusim.WaitMode) SystemOpt {
	return func(c *core.MeshConfig) { c.WaitMode = m }
}

// WithNodeConfig replaces the node template wholesale.
func WithNodeConfig(nc core.NodeConfig) SystemOpt {
	return func(c *core.MeshConfig) { c.Node = nc }
}

// WithPerNode derives node i's configuration from the template —
// heterogeneous deployments without giving up the single default.
func WithPerNode(fn func(i int, cfg core.NodeConfig) core.NodeConfig) SystemOpt {
	return func(c *core.MeshConfig) { c.PerNode = fn }
}

// WithReceiverTweak post-processes every per-channel receiver
// configuration (ablations: variable frames, GP insertion, page perms).
func WithReceiverTweak(fn func(mailbox.ReceiverConfig) mailbox.ReceiverConfig) SystemOpt {
	return func(c *core.MeshConfig) { c.ReceiverTweak = fn }
}

// WithChannelOptions sets the sender-options template applied to every
// channel (separate-signal protocol, auto-switch threshold, ...).
func WithChannelOptions(co core.ChannelOptions) SystemOpt {
	return func(c *core.MeshConfig) { c.Channel = co }
}

// WithChaos wraps the deployment's fabric backend in the "chaos"
// failure-injection transport: per-put latency perturbation within the
// declared bounds, drawn from the deployment's deterministic RNG, plus
// the optional lookahead misadvertisement stressors (see
// fabric.ChaosConfig). The wrapped backend is whatever WithBackend
// selected (resolved when the system is built, so option order does not
// matter), unless cc.Inner names one explicitly.
func WithChaos(cc fabric.ChaosConfig) SystemOpt {
	return func(c *core.MeshConfig) { c.Cluster.Chaos = &cc }
}

// WithConfig is the catch-all escape hatch for fields without a
// dedicated option.
func WithConfig(fn func(*core.MeshConfig)) SystemOpt {
	return func(c *core.MeshConfig) { fn(c) }
}

// NewSystem builds an n-node system from the paper-testbed defaults plus
// the given options.
func NewSystem(n int, opts ...SystemOpt) (*System, error) {
	cfg := core.DefaultMeshConfig(n)
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.Cluster.Chaos != nil && cfg.Cluster.Backend != "chaos" {
		// WithChaos wraps whatever backend the other options selected.
		if cfg.Cluster.Chaos.Inner == "" {
			cfg.Cluster.Chaos.Inner = cfg.Cluster.Backend
		}
		cfg.Cluster.Backend = "chaos"
	}
	m, err := core.NewMesh(cfg)
	if err != nil {
		return nil, err
	}
	return &System{mesh: m, futures: make([][]*Future, m.Cfg.Shards)}, nil
}

// Nodes returns the node count.
func (s *System) Nodes() int { return s.mesh.Nodes() }

// Node returns node i — the escape hatch to the process-level surface
// (address space, namespace, OnExecuted hook, stdout).
func (s *System) Node(i int) *core.Node { return s.mesh.Node(i) }

// ShardOf reports the fabric shard node i lives in.
func (s *System) ShardOf(i int) int { return s.mesh.ShardOf(i) }

// Engine is the default discrete-event clock (shard 0's under the
// parallel engine). Runtime scheduling for a specific node should use
// After/EngineFor so events land on the owning shard.
func (s *System) Engine() *sim.Engine { return s.mesh.Cluster.Eng }

// EngineFor returns the engine owning node i's events.
func (s *System) EngineFor(node int) *sim.Engine {
	return s.mesh.Cluster.EngineFor(s.mesh.ShardOf(node))
}

// After schedules fn d from now on node's shard engine — the safe way to
// drive a node from outside the simulation (scenario drivers arming
// senders). "Now" is the global clock: an idle shard's local clock lags
// behind the latest executed event, and scheduling relative to it would
// re-order against the sequential engine (or land in another shard's
// past). It must be called from setup code or from events already
// executing serially, never from another shard's concurrent window.
func (s *System) After(node int, d sim.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	now := s.Now()
	s.EngineFor(node).AtScheduled(now.Add(d), now, fn)
}

// Workers reports the worker count of the parallel engine (1 when it is
// not engaged).
func (s *System) Workers() int {
	if g := s.mesh.Cluster.Group; g != nil {
		return g.Workers()
	}
	return 1
}

// Sharded reports whether the parallel engine group is engaged.
func (s *System) Sharded() bool { return s.mesh.Cluster.Group != nil }

// Windows reports how many parallel windows the engine has executed — the
// engagement metric of the windowed regime (0 on a sequential system or a
// run that stayed serial throughout).
func (s *System) Windows() uint64 {
	if g := s.mesh.Cluster.Group; g != nil {
		return g.Windows()
	}
	return 0
}

// HoldSerial forces the parallel engine to execute one globally-ordered
// event at a time until the matching ReleaseSerial — the hook scenario
// drivers use around zero-lookahead global actions (lazy channel setup,
// RIED hot-swaps, phase barriers). It is a no-op on a sequential system.
// Legal only before Run or from an event already executing serially.
func (s *System) HoldSerial() {
	if g := s.mesh.Cluster.Group; g != nil {
		g.HoldSerial()
	}
}

// ReleaseSerial releases one HoldSerial.
func (s *System) ReleaseSerial() {
	if g := s.mesh.Cluster.Group; g != nil {
		g.ReleaseSerial()
	}
}

// Now returns the current simulated time (across every shard).
func (s *System) Now() sim.Time { return s.mesh.Cluster.Now() }

// RNG is the system's deterministic random stream; all workload
// randomness must come from it (or a Split) for replayable runs.
func (s *System) RNG() *sim.RNG { return s.mesh.RNG() }

// Run processes events until the system is quiescent.
func (s *System) Run() { s.mesh.Run() }

// RunFor processes events for d of simulated time.
func (s *System) RunFor(d sim.Duration) { s.mesh.Cluster.RunFor(d) }

// InstallPackage installs pkg on every node. Installing the same package
// twice is an error.
func (s *System) InstallPackage(pkg *core.Package) error {
	return s.mesh.InstallPackage(pkg)
}

// InstallRied ships a standalone RIED image to node i and loads it,
// optionally replacing existing name bindings — the remote-linking
// dynamic update path. Call RefreshNames(i) afterwards so senders pick up
// the new namespace.
func (s *System) InstallRied(i int, img *linker.Image, replace bool) (*linker.Loaded, error) {
	return s.mesh.InstallRied(i, img, replace)
}

// RefreshNames re-runs the namespace exchange on every channel into node
// i; Func handles re-bind automatically on their next Call.
func (s *System) RefreshNames(i int) { s.mesh.RefreshNames(i) }

// Teardown takes node i out of service: its mailbox regions stop being
// polled and subsequent Calls addressed to it fail fast.
func (s *System) Teardown(i int) error {
	if i < 0 || i >= s.mesh.Nodes() {
		return fmt.Errorf("tc: teardown: node %d out of range (%d nodes)", i, s.mesh.Nodes())
	}
	s.mesh.Node(i).Teardown()
	return nil
}

// FailNode injects a hard node failure: Teardown plus channel severing,
// fast-fail of every queued send with a typed *core.NodeDownError, and
// peer-side cache invalidation (see core.Mesh.FailNode). It returns the
// number of queued outbound sends the failure destroyed. Under the
// parallel engine it is a zero-lookahead global action: call it only
// while the group executes serially (workload drivers bracket it in a
// serial hold).
func (s *System) FailNode(i int) (int, error) { return s.mesh.FailNode(i) }

// RejoinNode brings a failed node back. Severed channels stay dead;
// peers rebuild them lazily on their next Call under the usual lazy
// channel-creation discipline.
func (s *System) RejoinNode(i int) error { return s.mesh.RejoinNode(i) }

// Channel returns the src->dst channel, creating it (and its mailbox
// region on dst) on first use — the lower-level surface for delivery-only
// frames and custom hooks.
func (s *System) Channel(src, dst int) (*core.Channel, error) {
	return s.mesh.Channel(src, dst)
}

// SendData sends a delivery-only frame (the without-execution mode of the
// overhead experiments) and returns its future.
func (s *System) SendData(src, dst int, usr []byte) *Future {
	fu := s.newFuture(s.mesh.ShardOf(src), 1)
	ch, err := s.mesh.Channel(src, dst)
	if err != nil {
		fu.fail(err)
		return fu
	}
	if err := ch.SendData(usr, fu.infoCb); err != nil {
		fu.fail(err)
		return fu
	}
	fu.armed = true
	return fu
}

// Stats sums sender, receiver, and jam-cache counters over the system.
func (s *System) Stats() core.MeshStats { return s.mesh.Stats() }

// step executes the single next event — the globally earliest one under
// the parallel engine (deterministic: serial stepping is totally
// ordered) — and reports whether anything ran. Future.Await drives it.
func (s *System) step() bool {
	if g := s.mesh.Cluster.Group; g != nil {
		return g.Step()
	}
	return s.mesh.Cluster.Eng.Step()
}

// Mesh exposes the underlying core deployment for callers that need the
// full internal surface (the perf harness does).
func (s *System) Mesh() *core.Mesh { return s.mesh }
