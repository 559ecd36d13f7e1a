package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"twochains/internal/core"
	"twochains/internal/mailbox"
	"twochains/internal/mem"
	"twochains/internal/memsim"
	"twochains/internal/sim"
	"twochains/internal/tc"
	"twochains/internal/tcapp"
	"twochains/internal/workload"
)

// Per-layer replays: calls into each layer's public functions, made
// from the benchmark's own code with the workload's deployment size,
// element mix and frame size, so nothing inside the program changes.
// Each replay runs under its own span and makes a fixed number of
// calls.

const (
	systemReps  = 3     // fresh systems built for tc.new_system / linker.install
	firstCalls  = 12    // fresh (src, dst) pairs timed for core.first_call
	issueFrames = 16384 // messages issued by the tc.call / tc.run replay
)

// body is one injected jam body as delivered into a receiver mailbox,
// captured so its VM entry can be called again directly.
type body struct {
	elem                  string
	weight                float64
	codeVA, entryVA       uint64
	argsVA, usrVA, usrLen uint64
	code                  []byte
}

// replay holds the replay system and its bookkeeping.
type replay struct {
	sh    shape
	rec   *recorder
	rng   *rand.Rand
	frame int
	pkgs  map[string]*core.Package
	sys   *tc.System
	fns   map[[3]string]*tc.Func
	usr   []byte
	out   map[string]float64
}

// perOp calls fn n times and returns nanoseconds per call. Replays
// make a fixed number of calls, so a layer's self time in the trace is
// proportional to its cost.
func perOp(n int, fn func(i int) error) (float64, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), nil
}

// weightedMean averages per-entry values by mix weight.
func weightedMean(vals, weights []float64) float64 {
	var s, w float64
	for i := range vals {
		s += vals[i] * weights[i]
		w += weights[i]
	}
	if w == 0 {
		return 0
	}
	return s / w
}

func pkgOf(m workload.ElementMix) string {
	if m.Pkg == "" {
		return workload.DefaultPkg
	}
	return m.Pkg
}

// mixPackages lists the packages a mix names, sorted.
func mixPackages(mix []workload.ElementMix) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range mix {
		if p := pkgOf(m); !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// frameFor sizes the mailbox frame to the largest message of the mix,
// as workload.Run does.
func frameFor(pkgs map[string]*core.Package, sh shape) (int, error) {
	frame := 0
	for _, m := range sh.mix {
		var n int
		if m.Local {
			n = mailbox.PackLocal(1, 1, [2]uint64{}, make([]byte, sh.payload)).WireLen()
		} else {
			el, ok := pkgs[pkgOf(m)].Element(m.Elem)
			if !ok {
				return 0, fmt.Errorf("no element %s/%s", pkgOf(m), m.Elem)
			}
			var err error
			if n, err = core.InjectedFrameLen(el, sh.payload); err != nil {
				return 0, err
			}
		}
		frame = max(frame, n)
	}
	return frame, nil
}

func (r *replay) newSystem() (*tc.System, error) {
	opts := []tc.SystemOpt{
		tc.WithTiming(true),
		tc.WithWorkers(1),
		tc.WithConfig(func(c *core.MeshConfig) { c.Geometry.FrameSize = r.frame }),
	}
	if r.sh.shards > 0 {
		opts = append(opts, tc.WithShards(r.sh.shards))
	}
	return tc.NewSystem(r.sh.nodes, opts...)
}

func (r *replay) fn(src int, m workload.ElementMix) (*tc.Func, error) {
	k := [3]string{fmt.Sprint(src), pkgOf(m), m.Elem}
	if f := r.fns[k]; f != nil {
		return f, nil
	}
	f, err := r.sys.Func(src, pkgOf(m), m.Elem)
	if err != nil {
		return nil, err
	}
	r.fns[k] = f
	return f, nil
}

func (r *replay) args() [2]uint64 {
	a := [2]uint64{uint64(r.rng.Intn(30000)) + 1, 0}
	if r.sh.arg1 {
		a[1] = uint64(r.rng.Intn(30000)) + 1
	}
	return a
}

// pick draws a mix entry by weight.
func (r *replay) pick() workload.ElementMix {
	total := 0
	for _, m := range r.sh.mix {
		total += m.Weight
	}
	w := r.rng.Intn(total)
	for _, m := range r.sh.mix {
		if w -= m.Weight; w < 0 {
			return m
		}
	}
	return r.sh.mix[len(r.sh.mix)-1]
}

// burst is one planned Func.Call of the tc.issue replay.
type burst struct {
	f     *tc.Func
	dst   int
	batch [][2]uint64
	opts  []tc.CallOpt
}

// plan prepares a burst of n messages of mix entry m from src to dst,
// so the timed loop makes only the call.
func (r *replay) plan(src, dst int, m workload.ElementMix, n int) (burst, error) {
	f, err := r.fn(src, m)
	if err != nil {
		return burst{}, err
	}
	b := burst{f: f, dst: dst, batch: make([][2]uint64, n), opts: []tc.CallOpt{tc.Payload(r.usr)}}
	for i := range b.batch {
		b.batch[i] = r.args()
	}
	if n > 1 {
		b.opts = append(b.opts, tc.Burst(b.batch))
	}
	if m.Local {
		b.opts = append(b.opts, tc.Local())
	}
	return b, nil
}

// runReplays runs every layer replay for the workload's shape and
// returns the per-layer metrics.
func runReplays(sh shape, seed uint64, rec *recorder) (map[string]float64, error) {
	r := &replay{sh: sh, rec: rec, rng: rand.New(rand.NewSource(int64(simSeed(seed) >> 1))),
		fns: map[[3]string]*tc.Func{}, usr: make([]byte, sh.payload), out: map[string]float64{}}
	for i := range r.usr {
		r.usr[i] = byte(i*31 + 7)
	}
	root := rec.begin("replay")
	steps := []func() error{r.build, r.system, r.firstCall, r.vmBodies, r.mailbox, r.memsim, r.engine, r.issue}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	rec.end(root, nil)
	return r.out, nil
}

// build times tcapp.Build over the mix's packages.
func (r *replay) build() error {
	sp := r.rec.begin("tcapp.build")
	var ms []float64
	for rep := 0; rep < 5; rep++ {
		t := time.Now()
		pkgs := map[string]*core.Package{}
		for _, name := range mixPackages(r.sh.mix) {
			p, err := tcapp.Build(name)
			if err != nil {
				return err
			}
			pkgs[name] = p
		}
		ms = append(ms, float64(time.Since(t).Nanoseconds())/1e6)
		r.pkgs = pkgs
	}
	r.rec.end(sp, nil)
	r.out["tcapp.build_ms"] = median(ms)
	frame, err := frameFor(r.pkgs, r.sh)
	r.frame = frame
	return err
}

// system times tc.NewSystem and System.InstallPackage on fresh systems
// of the workload's size; the last one stays up for the other replays.
func (r *replay) system() error {
	var newMs, instMs []float64
	for rep := 0; rep < systemReps; rep++ {
		r.sys = nil
		sp := r.rec.begin("tc.new_system")
		t := time.Now()
		sys, err := r.newSystem()
		if err != nil {
			return err
		}
		newMs = append(newMs, float64(time.Since(t).Nanoseconds())/1e6)
		r.rec.end(sp, nil)
		sp = r.rec.begin("linker.install")
		t = time.Now()
		for _, name := range mixPackages(r.sh.mix) {
			if err := sys.InstallPackage(r.pkgs[name]); err != nil {
				return err
			}
		}
		instMs = append(instMs, float64(time.Since(t).Nanoseconds())/1e6)
		r.rec.end(sp, nil)
		r.sys = sys
	}
	r.out["tc.new_system_ms"] = median(newMs)
	r.out["linker.install_ms"] = median(instMs)
	r.out["linker.install_ms_per_node"] = median(instMs) / float64(r.sh.nodes)
	return nil
}

// firstInjected is the heaviest injected entry of the mix.
func (r *replay) firstInjected() workload.ElementMix {
	var best workload.ElementMix
	for _, m := range r.sh.mix {
		if !m.Local && m.Weight > best.Weight {
			best = m
		}
	}
	return best
}

// firstCall times System.Func + the first Func.Call + Run on fresh
// (src, dst) pairs: lazy channel and mailbox creation, the jam bind and
// its JIT compile. Pair (0, 1) is left for the VM replay.
func (r *replay) firstCall() error {
	n := r.sh.nodes
	m := r.firstInjected()
	used := map[[2]int]bool{{0, 1}: true}
	var us []float64
	sp := r.rec.begin("core.first_call")
	for len(us) < firstCalls && len(used) < n*(n-1) {
		src, dst := r.rng.Intn(n), r.rng.Intn(n)
		if src == dst || used[[2]int{src, dst}] {
			continue
		}
		used[[2]int{src, dst}] = true
		t := time.Now()
		f, err := r.sys.Func(src, pkgOf(m), m.Elem)
		if err != nil {
			return err
		}
		fu := f.Call(dst, r.args(), tc.Payload(r.usr))
		if err := fu.IssueErr(); err != nil {
			return err
		}
		r.sys.Run()
		us = append(us, float64(time.Since(t).Nanoseconds())/1e3)
		fu.Release()
	}
	r.rec.end(sp, nil)
	r.out["core.first_call_us"] = median(us)
	return nil
}

// capture delivers one message of every injected body of the mix over
// (0, 1) and records where each landed in node 1's mailbox.
func (r *replay) capture() ([]body, error) {
	ch, err := r.sys.Channel(0, 1)
	if err != nil {
		return nil, err
	}
	var got *mailbox.Delivery
	ch.Recv.OnProcessed = func(d *mailbox.Delivery, _ sim.Time) {
		c := *d
		got = &c
	}
	defer func() { ch.Recv.OnProcessed = nil }()
	node := r.sys.Node(1)
	var out []body
	seen := map[string]int{}
	for _, m := range r.sh.mix {
		if m.Local {
			continue
		}
		key := pkgOf(m) + "/" + m.Elem
		if i, ok := seen[key]; ok {
			out[i].weight += float64(m.Weight)
			continue
		}
		f, err := r.fn(0, m)
		if err != nil {
			return nil, err
		}
		got = nil
		fu := f.Call(1, r.args(), tc.Payload(r.usr))
		if err := fu.IssueErr(); err != nil {
			return nil, err
		}
		r.sys.Run()
		fu.Release()
		if got == nil {
			return nil, fmt.Errorf("replay: %s was not delivered", key)
		}
		code, err := node.AS.ReadBytesDMA(got.CodeVA, got.TextLen)
		if err != nil {
			return nil, err
		}
		seen[key] = len(out)
		out = append(out, body{elem: key, weight: float64(m.Weight), codeVA: got.CodeVA,
			entryVA: got.EntryVA, argsVA: got.ArgsVA, usrVA: got.UsrVA, usrLen: uint64(got.UsrLen), code: code})
	}
	return out, nil
}

// vmBodies times VM.AddRegion (decode, validate and JIT compile), and
// VM.Call against VM.CallInterp, on every distinct jam body of the mix,
// and checks that both engines agree on result and simulated cost.
func (r *replay) vmBodies() error {
	bodies, err := r.capture()
	if err != nil {
		return err
	}
	v := r.sys.Node(1).VM
	var comp, exec, interp, w []float64
	step := func(name string, fn func(b body) (float64, error)) ([]float64, error) {
		sp := r.rec.begin(name)
		var vals []float64
		args := map[string]float64{}
		for _, b := range bodies {
			x, err := fn(b)
			if err != nil {
				return nil, err
			}
			vals = append(vals, x)
			args[b.elem] = x
		}
		r.rec.end(sp, args)
		return vals, nil
	}
	if comp, err = step("vm.compile", func(b body) (float64, error) {
		ns, err := perOp(500, func(int) error {
			reg, err := v.AddRegion(b.codeVA, b.code, 0)
			if err == nil {
				v.RemoveRegion(reg)
			}
			return err
		})
		return ns / 1e3, err
	}); err != nil {
		return err
	}
	if exec, err = step("vm.exec", func(b body) (float64, error) {
		return perOp(20000, func(int) error {
			_, _, err := v.Call(b.entryVA, b.argsVA, b.usrVA, b.usrLen)
			return err
		})
	}); err != nil {
		return err
	}
	if interp, err = step("vm.interp", func(b body) (float64, error) {
		return perOp(20000, func(int) error {
			_, _, err := v.CallInterp(b.entryVA, b.argsVA, b.usrVA, b.usrLen)
			return err
		})
	}); err != nil {
		return err
	}
	for _, b := range bodies {
		w = append(w, b.weight)
		ret1, cost1, err1 := v.Call(b.entryVA, b.argsVA, b.usrVA, b.usrLen)
		ret2, cost2, err2 := v.CallInterp(b.entryVA, b.argsVA, b.usrVA, b.usrLen)
		if ret1 != ret2 || cost1 != cost2 || (err1 == nil) != (err2 == nil) {
			return fmt.Errorf("replay: %s compiled (%d, %v, %v) != interpreted (%d, %v, %v)",
				b.elem, ret1, cost1, err1, ret2, cost2, err2)
		}
	}
	r.out["vm.compile_us"] = weightedMean(comp, w)
	r.out["vm.exec_ns"] = weightedMean(exec, w)
	r.out["vm.interp_ns"] = weightedMean(interp, w)
	return nil
}

// message builds the frame of one mix entry, as the sender packs it.
func (r *replay) message(m workload.ElementMix) (*mailbox.Message, error) {
	if m.Local {
		return mailbox.PackLocal(1, 1, r.args(), r.usr), nil
	}
	el, ok := r.pkgs[pkgOf(m)].Element(m.Elem)
	if !ok || el.Kind != core.ElemJam {
		return nil, fmt.Errorf("replay: no jam %s/%s", pkgOf(m), m.Elem)
	}
	return &mailbox.Message{
		Kind:        mailbox.KindInjected,
		JamImage:    make([]byte, el.Jam.ShippedSize()),
		GotTableLen: el.Jam.GotTableLen(),
		TextLen:     el.Jam.TextLen,
		Args:        r.args(),
		Usr:         r.usr,
	}, nil
}

// mailbox times Message.Pack and ParseFrameInto on every mix entry at
// the workload's frame size; the parse reads frames from node 1's
// address space, where a receiver finds them.
func (r *replay) mailbox() error {
	as := r.sys.Node(1).AS
	va, err := as.AllocPages("perfbench:frames", r.frame, mem.PermRW)
	if err != nil {
		return err
	}
	buf := make([]byte, r.frame)
	var pack, parse, w []float64
	packArgs, parseArgs := map[string]float64{}, map[string]float64{}
	for _, m := range r.sh.mix {
		msg, err := r.message(m)
		if err != nil {
			return err
		}
		sp := r.rec.begin("mailbox.pack")
		ns, err := perOp(200000, func(i int) error { return msg.Pack(buf, r.frame, uint32(i+1), va) })
		if err != nil {
			return err
		}
		r.rec.end(sp, nil)
		if err := as.WriteBytesDMA(va, buf); err != nil {
			return err
		}
		var d mailbox.Delivery
		sp = r.rec.begin("mailbox.parse")
		pns, err := perOp(200000, func(int) error { return mailbox.ParseFrameInto(&d, as, va, r.frame) })
		if err != nil {
			return err
		}
		r.rec.end(sp, nil)
		key := pkgOf(m) + "/" + m.Elem
		if m.Local {
			key += "/local"
		}
		packArgs[key], parseArgs[key] = ns, pns
		pack, parse, w = append(pack, ns), append(parse, pns), append(w, float64(m.Weight))
	}
	r.out["mailbox.pack_ns"] = weightedMean(pack, w)
	r.out["mailbox.parse_ns"] = weightedMean(parse, w)
	return nil
}

// memsim times one frame's delivery through a receiver's hierarchy:
// Hierarchy.NetworkWrite of the frame, then Hierarchy.AccessSeq reading
// it, in mailbox-slot order over the receiver's inbound footprint of
// (nodes-1) channels of 4 banks x 8 slots.
func (r *replay) memsim() error {
	h := memsim.New(r.sys.Node(1).Hier.Config())
	slots := (r.sh.nodes - 1) * 32
	const base = 0x4000_0000
	sp := r.rec.begin("memsim.access")
	ns, err := perOp(100000, func(i int) error {
		addr := uint64(base + (i%slots)*r.frame)
		h.NetworkWrite(addr, r.frame)
		h.AccessSeq(addr, r.frame, memsim.Read, true)
		return nil
	})
	if err != nil {
		return err
	}
	r.rec.end(sp, nil)
	st := h.Stats()
	hits := st.LinesL2 + st.LinesL3 + st.LinesLLC
	r.out["memsim.access_ns"] = ns
	r.out["memsim.hit_ratio"] = float64(hits) / float64(max(1, hits+st.LinesDRAM+st.LinesPref))
	return nil
}

// engine times a sim.Engine schedule + pop pair at the queue depth of
// one burst in flight from every node.
func (r *replay) engine() error {
	e := sim.NewEngine()
	fn := func() {}
	depth := r.sh.nodes * r.sh.burst
	for i := 0; i < depth; i++ {
		e.At(sim.Time(i), fn)
	}
	sp := r.rec.begin("sim.event")
	ns, err := perOp(1000000, func(int) error {
		e.At(e.Now()+sim.Time(depth), fn)
		e.Step()
		return nil
	})
	r.rec.end(sp, nil)
	r.out["sim.event_ns"] = ns
	return err
}

// issue times Func.Call on warm handles and System.Run per injection
// for bursts of the mix over the pairs the first-call replay connected,
// and counts the JIT translations and deopts the traffic causes.
func (r *replay) issue() error {
	var pairs [][2]int
	r.sys.Mesh().EachChannel(func(s, d int, _ *core.Channel) {
		pairs = append(pairs, [2]int{s, d})
	})
	vmCount := func() (c, d uint64) {
		for i := 0; i < r.sh.nodes; i++ {
			v := r.sys.Node(i).VM
			c, d = c+v.JITCompiles, d+v.JITDeopts
		}
		return c, d
	}
	c0, d0 := vmCount()
	ex0 := r.sys.Stats().Processed
	var callNs, runNs int64
	calls := 0
	sp := r.rec.begin("tc.issue")
	round := make([]burst, len(pairs))
	for calls < issueFrames {
		// One burst from each pair per round, like a closed-loop round.
		for i, p := range pairs {
			b, err := r.plan(p[0], p[1], r.pick(), r.sh.burst)
			if err != nil {
				return err
			}
			round[i] = b
		}
		csp := r.rec.begin("tc.call")
		t := time.Now()
		for _, b := range round {
			fu := b.f.Call(b.dst, b.batch[0], b.opts...)
			err := fu.IssueErr()
			fu.Release()
			if err != nil {
				return err
			}
		}
		callNs += time.Since(t).Nanoseconds()
		r.rec.end(csp, nil)
		calls += len(round) * r.sh.burst
		rsp := r.rec.begin("tc.run")
		t = time.Now()
		r.sys.Run()
		runNs += time.Since(t).Nanoseconds()
		r.rec.end(rsp, nil)
	}
	r.rec.end(sp, nil)
	c1, d1 := vmCount()
	inj := r.sys.Stats().Processed - ex0
	if inj != uint64(calls) {
		return fmt.Errorf("replay: %d of %d issued messages processed", inj, calls)
	}
	r.out["tc.call_ns"] = float64(callNs) / float64(calls)
	r.out["tc.run_ns_per_inj"] = float64(runNs) / float64(inj)
	r.out["vm.compiles_per_inj"] = float64(c1-c0) / float64(inj)
	r.out["vm.jit_deopts"] = float64(d1 - d0)
	return nil
}
