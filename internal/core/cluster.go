package core

import (
	"bytes"
	"fmt"
	"sort"

	"twochains/internal/cpusim"
	"twochains/internal/fabric"
	"twochains/internal/linker"
	"twochains/internal/mailbox"
	"twochains/internal/mem"
	"twochains/internal/memsim"
	"twochains/internal/sim"
	"twochains/internal/ucx"
	"twochains/internal/vm"

	// Register the default "simnet" fabric backend; core itself speaks
	// only to the fabric.Transport interface.
	_ "twochains/internal/simnet"
)

// ClusterConfig selects fabric-wide behaviour.
type ClusterConfig struct {
	// Ordered is the fabric write-order guarantee (paper testbed: true).
	Ordered bool
	Seed    uint64
	// Backend names the fabric transport ("" selects the default,
	// "simnet"); see fabric.Backends for the registered set.
	Backend string
	// Workers > 1 requests the multi-core conservative engine: one sim
	// engine per fabric shard (Shards of them), advanced by up to Workers
	// goroutines, with results bit-identical to single-engine execution.
	// It engages only when Shards > 1 and the backend implements
	// fabric.ShardedTransport; otherwise the cluster runs on one engine
	// exactly as before.
	Workers int
	// Shards is the fabric-shard (leaf-domain) count the parallel engine
	// partitions by. Node placement stays the caller's job (AddNodeShard /
	// Fabric.AssignDomain must agree with it).
	Shards int
	// Speculation is the parallel engine's speculative-window budget: how
	// far past the conservative horizon a shard may run when the
	// reachability bound allows it (sim.Group.SetSpeculation). Zero — the
	// default — keeps windows strictly conservative; results are
	// bit-identical either way.
	Speculation sim.Duration
	// Chaos configures the "chaos" failure-injection backend (and is
	// ignored by every other backend); see fabric.ChaosConfig.
	Chaos *fabric.ChaosConfig
}

// DefaultClusterConfig matches the paper's testbed.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{Ordered: true, Seed: 0x7c2c2021}
}

// Cluster is a set of simulated processes on one fabric backend sharing a
// discrete-event clock (or, under the parallel engine, a group of
// per-shard clocks advanced conservatively in lockstep).
type Cluster struct {
	// Eng is the default engine: the only engine of a sequential cluster,
	// shard 0's under a Group. Setup-time scheduling may use it; runtime
	// scheduling must target the owning node's shard (EngineFor).
	Eng    *sim.Engine
	Group  *sim.Group // nil unless the parallel engine engaged
	Fabric fabric.Transport
	Ctx    *ucx.Context
	Nodes  []*Node
}

// NewCluster creates an empty cluster. It panics on an unregistered
// backend name; callers that take the name from configuration should
// validate it with fabric.Lookup first (tc.NewSystem and NewMesh do).
// With cfg.Workers > 1 and cfg.Shards > 1 it builds the multi-core
// conservative engine, provided the backend supports per-shard placement;
// unsupported backends fall back to single-engine execution.
func NewCluster(cfg ClusterConfig) *Cluster {
	eng := sim.NewEngine()
	fab, err := fabric.New(cfg.Backend, eng, fabric.Config{Ordered: cfg.Ordered, Seed: cfg.Seed, Chaos: cfg.Chaos})
	if err != nil {
		panic("core: " + err.Error())
	}
	c := &Cluster{Eng: eng, Fabric: fab, Ctx: ucx.NewContext(fab)}
	if cfg.Workers > cfg.Shards {
		// More workers than shards is pure waste: a worker can only ever
		// own whole shards, so the excess goroutines would idle at every
		// barrier. tcperf/tcrun default Workers to NumCPU regardless of
		// the shard count, so clamp here rather than in every driver.
		cfg.Workers = cfg.Shards
	}
	if cfg.Workers > 1 && cfg.Shards > 1 {
		if st, ok := fab.(fabric.ShardedTransport); ok {
			g := sim.NewGroup(cfg.Shards, cfg.Workers, st.Lookahead())
			if cfg.Speculation > 0 {
				g.SetSpeculation(cfg.Speculation)
			}
			st.BindGroup(g)
			c.Group = g
			c.Eng = g.Engine(0)
		}
	}
	return c
}

// EngineFor returns the engine of one fabric shard (the single engine
// when the parallel group is not engaged).
func (c *Cluster) EngineFor(shard int) *sim.Engine {
	if c.Group == nil {
		return c.Eng
	}
	return c.Group.Engine(shard)
}

// Run processes events until the cluster is quiescent.
func (c *Cluster) Run() {
	if c.Group != nil {
		c.Group.Run()
		return
	}
	c.Eng.Run()
}

// RunFor processes events for d of simulated time.
func (c *Cluster) RunFor(d sim.Duration) {
	if c.Group != nil {
		c.Group.RunFor(d)
		return
	}
	c.Eng.RunFor(d)
}

// Now returns the cluster-wide simulated time: the latest executed event
// across every shard.
func (c *Cluster) Now() sim.Time {
	if c.Group != nil {
		return c.Group.Now()
	}
	return c.Eng.Now()
}

// NodeConfig selects one node's hardware and runtime features.
type NodeConfig struct {
	// MemBytes is the address-space capacity (default 64 MB).
	MemBytes int
	// Stash enables LLC stashing of inbound network traffic.
	Stash bool
	// Prefetch enables the stride prefetcher.
	Prefetch bool
	// Timing enables the cache/CPU cost model; functional tests can turn
	// it off.
	Timing bool
	// Seed for this node's stochastic models.
	Seed uint64
	// Interpreter forces every VM call through the reference interpret
	// loop instead of the compiled translations (A/B oracle switch; see
	// vm.VM.UseInterpreter).
	Interpreter bool

	// Security options (paper §V).
	// CheckExec makes the VM enforce execute permissions on fetch.
	CheckExec bool
	// SecureExec copies injected jam bodies out of the mailbox into a
	// separate execution area before running them, so mailbox pages need
	// not be executable.
	SecureExec bool
	// ReadOnlyGOT remaps library GOTs read-only after binding.
	ReadOnlyGOT bool
}

// DefaultNodeConfig matches the paper's measurement configuration.
func DefaultNodeConfig() NodeConfig {
	return NodeConfig{
		MemBytes: 64 << 20,
		Stash:    true,
		Prefetch: true,
		Timing:   true,
		Seed:     0x7c2c2021,
	}
}

// Node is one simulated process: address space, caches, namespace, VM,
// worker, and installed packages.
type Node struct {
	Name    string
	Cfg     NodeConfig
	Cluster *Cluster
	// Shard is the fabric shard (leaf domain) the node lives in; Eng is
	// that shard's engine — the only engine this node's events may be
	// scheduled on under the parallel group.
	Shard int
	Eng   *sim.Engine

	AS      *mem.AddressSpace
	Hier    *memsim.Hierarchy
	NS      *linker.Namespace
	VM      *vm.VM
	Worker  *ucx.Worker
	Counter *cpusim.Counter
	Stdout  bytes.Buffer

	// Receivers holds every armed mailbox region (AddMailbox), one per
	// inbound channel.
	Receivers []*mailbox.Receiver

	pkgs    map[string]*InstalledPackage
	nextPkg uint8
	// nsViews are per-tenant linker namespaces, forked from the base
	// namespace on first use (see NamespaceView).
	nsViews  map[string]*linker.Namespace
	execArea uint64 // SecureExec scratch
	// jams is the sender-side prepared-jam cache shared by every outgoing
	// channel of this node (bind once per element + receiver namespace).
	jams *jamCache
	// down marks a torn-down node: sends addressed to it fail fast.
	down bool
	// OnExecuted observes every handler execution (benchmark hook).
	OnExecuted func(ret uint64, cost sim.Duration, err error)
}

// InstalledPackage is a package present on a node.
type InstalledPackage struct {
	Pkg *Package
	ID  uint8
	// LocalLib is the loaded Local Function library, with the function
	// vector indexed by element ID.
	LocalLib *linker.Loaded
	localVec map[uint8]uint64
	rieds    map[string]*linker.Loaded
}

// AddNode creates a node in fabric shard 0 and attaches it to the fabric.
func (c *Cluster) AddNode(name string, cfg NodeConfig) (*Node, error) {
	return c.AddNodeShard(name, cfg, 0)
}

// AddNodeShard creates a node placed in the given fabric shard: its NIC
// joins that leaf domain and every host-side event it generates runs on
// that shard's engine.
func (c *Cluster) AddNodeShard(name string, cfg NodeConfig, shard int) (*Node, error) {
	if cfg.MemBytes == 0 {
		cfg.MemBytes = 64 << 20
	}
	n := &Node{
		Name:    name,
		Cfg:     cfg,
		Cluster: c,
		Shard:   shard,
		Eng:     c.EngineFor(shard),
		AS:      mem.NewAddressSpace(cfg.MemBytes),
		NS:      linker.NewNamespace(),
		pkgs:    map[string]*InstalledPackage{},
		jams:    newJamCache(),
	}
	if cfg.Timing {
		mc := memsim.DefaultConfig()
		mc.Stash = cfg.Stash
		mc.Prefetch = cfg.Prefetch
		mc.Seed = cfg.Seed ^ uint64(len(c.Nodes))
		n.Hier = memsim.New(mc)
	}
	machine, err := vm.New(n.AS, n.Hier, &n.Stdout)
	if err != nil {
		return nil, fmt.Errorf("core: node %s: %w", name, err)
	}
	n.VM = machine
	n.VM.CheckExec = cfg.CheckExec
	n.VM.UseInterpreter = cfg.Interpreter
	if err := vm.BindLibc(n.VM, n.NS); err != nil {
		return nil, fmt.Errorf("core: node %s: %w", name, err)
	}
	n.Worker = c.Ctx.NewWorkerOn(n.AS, n.Hier, n.Eng)
	c.Fabric.AssignDomain(n.Worker.NIC, shard)
	n.Counter = cpusim.NewCounter(sim.NewRNG(cfg.Seed ^ 0xc0ffee ^ uint64(len(c.Nodes))))
	if cfg.SecureExec {
		va, err := n.AS.AllocPages("secure-exec", 64*1024, mem.PermRWX)
		if err != nil {
			return nil, fmt.Errorf("core: node %s: %w", name, err)
		}
		n.execArea = va
	}
	c.Nodes = append(c.Nodes, n)
	return n, nil
}

// SetStress toggles the memory-stress co-runner on this node.
func (n *Node) SetStress(on bool) {
	if n.Hier != nil {
		n.Hier.SetStress(on)
	}
}

// BindNative registers a host function in this node's namespace, making
// it callable from jams and rieds like any C library symbol.
func (n *Node) BindNative(name string, fn vm.NativeFunc) error {
	va, err := n.VM.BindNative(name, fn)
	if err != nil {
		return err
	}
	return n.NS.Define(name, va)
}

// NamespaceView returns the node's namespace view for key, forking it
// from the base namespace on first use. The fork copies the current base
// bindings (libc, natives, already-installed base packages), so a view
// resolves everything the base does until a per-view install shadows a
// name. Views never feed back into the base namespace.
func (n *Node) NamespaceView(key string) *linker.Namespace {
	if n.nsViews == nil {
		n.nsViews = map[string]*linker.Namespace{}
	}
	if ns, ok := n.nsViews[key]; ok {
		return ns
	}
	ns := linker.NewNamespace()
	// Fork in sorted name order: the namespace is a plain map today, but
	// definition order must never become an accidental function of Go's
	// randomized map iteration (tclint detsource).
	snap := n.NS.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ns.Redefine(name, snap[name])
	}
	n.nsViews[key] = ns
	return ns
}

// InstallPackage loads a built package onto the node: rieds are loaded as
// libraries (registering their exports in the node namespace), and the
// Local Function library is loaded to provide the by-ID function vector.
func (n *Node) InstallPackage(pkg *Package) (*InstalledPackage, error) {
	return n.installPackageAs(pkg.Name, n.NS, pkg, false)
}

// InstallPackageAs loads pkg under the given alias into ns — the
// per-tenant install path: the alias is the tenant-qualified package
// name, ns the tenant's namespace view. Replacement is allowed so the
// tenant's version of an app shadows the base install's symbols inside
// its own view without touching any other namespace. The install still
// gets a node-unique package ID, so by-ID local dispatch cannot collide
// across tenants.
func (n *Node) InstallPackageAs(alias string, ns *linker.Namespace, pkg *Package) (*InstalledPackage, error) {
	return n.installPackageAs(alias, ns, pkg, true)
}

func (n *Node) installPackageAs(alias string, ns *linker.Namespace, pkg *Package, replace bool) (*InstalledPackage, error) {
	if _, dup := n.pkgs[alias]; dup {
		return nil, fmt.Errorf("core: node %s: package %s already installed", n.Name, alias)
	}
	n.nextPkg++
	inst := &InstalledPackage{
		Pkg:      pkg,
		ID:       n.nextPkg,
		localVec: map[uint8]uint64{},
		rieds:    map[string]*linker.Loaded{},
	}
	opts := linker.LoadOptions{ReadOnlyGOT: n.Cfg.ReadOnlyGOT, Replace: replace}

	for _, e := range pkg.Elements {
		if e.Kind != ElemRied {
			continue
		}
		ld, err := linker.Load(n.AS, ns, e.Ried, opts)
		if err != nil {
			return nil, fmt.Errorf("core: node %s: ried %s: %w", n.Name, e.Name, err)
		}
		if err := n.mapLibrary(ld); err != nil {
			return nil, err
		}
		inst.rieds[e.Name] = ld
	}
	if pkg.LocalLib != nil {
		ld, err := linker.Load(n.AS, ns, pkg.LocalLib, opts)
		if err != nil {
			return nil, fmt.Errorf("core: node %s: local lib: %w", n.Name, err)
		}
		if err := n.mapLibrary(ld); err != nil {
			return nil, err
		}
		inst.LocalLib = ld
		for _, e := range pkg.Elements {
			if e.Kind != ElemJam {
				continue
			}
			va, ok := ld.Exports[e.Name]
			if !ok {
				return nil, fmt.Errorf("core: node %s: local lib lacks %s", n.Name, e.Name)
			}
			inst.localVec[e.ID] = va
		}
	}
	n.pkgs[alias] = inst
	return inst, nil
}

// mapLibrary registers a loaded library's text with the VM.
func (n *Node) mapLibrary(ld *linker.Loaded) error {
	if ld.TextLen == 0 {
		return nil
	}
	code, err := n.AS.ReadBytesDMA(ld.TextVA, ld.TextLen)
	if err != nil {
		return err
	}
	if _, err := n.VM.AddRegion(ld.TextVA, code, ld.GotVA); err != nil {
		return fmt.Errorf("core: node %s: map %s: %w", n.Name, ld.Image.Name, err)
	}
	return nil
}

// Package returns an installed package by name.
func (n *Node) Package(name string) (*InstalledPackage, bool) {
	p, ok := n.pkgs[name]
	return p, ok
}

// InstallRied ships a standalone ried image to this node and loads it,
// optionally replacing existing name bindings — the remote-linking dynamic
// update path (paper §III: applications alter subsequent active message
// behaviour by loading a library that changes symbol resolution).
func (n *Node) InstallRied(img *linker.Image, replace bool) (*linker.Loaded, error) {
	ld, err := linker.Load(n.AS, n.NS, img, linker.LoadOptions{
		ReadOnlyGOT: n.Cfg.ReadOnlyGOT,
		Replace:     replace,
	})
	if err != nil {
		return nil, err
	}
	if err := n.mapLibrary(ld); err != nil {
		return nil, err
	}
	return ld, nil
}

// SymbolVA resolves a name in this node's namespace.
func (n *Node) SymbolVA(name string) (uint64, bool) {
	return n.NS.Lookup(name)
}
