package core

import (
	"strings"
	"testing"

	"twochains/internal/mailbox"
	"twochains/internal/sim"
)

// bench is a two-node cluster with the tcbench package installed on both
// sides and a channel from A to B.
type bench struct {
	c    *Cluster
	a, b *Node
	ab   *Channel
	pkg  *Package
}

func newBench(t *testing.T, frameSize int, nodeCfg NodeConfig, chOpts ChannelOptions) *bench {
	t.Helper()
	pkg, err := BuildBenchPackage()
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(DefaultClusterConfig())
	a, err := c.AddNode("A", nodeCfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.AddNode("B", nodeCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []*Node{a, b} {
		if _, err := n.InstallPackage(pkg); err != nil {
			t.Fatal(err)
		}
	}
	g := mailbox.Geometry{Banks: 2, Slots: 4, FrameSize: frameSize}
	rcfg := mailbox.DefaultReceiverConfig(g)
	rcfg.Credits = true
	ch := connect(t, a, b, rcfg, chOpts)
	return &bench{c: c, a: a, b: b, ab: ch, pkg: pkg}
}

// connect arms a fresh mailbox region on dst and opens a channel from
// src into it — the per-channel region layout the mesh uses.
func connect(t testing.TB, src, dst *Node, rcfg mailbox.ReceiverConfig, opts ChannelOptions) *Channel {
	t.Helper()
	recv, err := dst.AddMailbox(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := ConnectTo(src, dst, recv, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// inject sends one Injected Function message through h.
func inject(h *Bound, args [2]uint64, usr []byte) error {
	return h.Send(mailbox.KindInjected, [][2]uint64{args}, false, usr, nil)
}

// callLocal sends one Local Function message through h.
func callLocal(h *Bound, args [2]uint64, usr []byte) error {
	return h.Send(mailbox.KindLocal, [][2]uint64{args}, false, usr, nil)
}

// injectBurst sends one Injected Function message per batch entry as a
// single batched operation.
func injectBurst(h *Bound, batch [][2]uint64, usr []byte) error {
	return h.Send(mailbox.KindInjected, batch, true, usr, nil)
}

func quickCfg() NodeConfig {
	cfg := DefaultNodeConfig()
	cfg.Timing = false
	cfg.MemBytes = 32 << 20
	return cfg
}

// expectedSum mirrors jam_sssum's summation: u64 words then byte tail.
func expectedSum(payload []byte) uint64 {
	var sum uint64
	i := 0
	for ; i+8 <= len(payload); i += 8 {
		var w uint64
		for j := 0; j < 8; j++ {
			w |= uint64(payload[i+j]) << (8 * j)
		}
		sum += w
	}
	for ; i < len(payload); i++ {
		sum += uint64(payload[i])
	}
	return sum
}

func TestBenchPackageShape(t *testing.T) {
	pkg, err := BuildBenchPackage()
	if err != nil {
		t.Fatal(err)
	}
	iput, ok := pkg.Element("jam_iput")
	if !ok {
		t.Fatal("jam_iput missing")
	}
	// §VII-A: "The code for Indirect Put is 1408 bytes when shipped."
	if got := iput.Jam.ShippedSize(); got != 1408 {
		t.Fatalf("jam_iput shipped size = %d, want 1408", got)
	}
	sssum, ok := pkg.Element("jam_sssum")
	if !ok {
		t.Fatal("jam_sssum missing")
	}
	if sssum.Jam.ShippedSize() >= iput.Jam.ShippedSize() {
		t.Fatal("sssum jam should be smaller than iput")
	}
	if pkg.LocalLib == nil {
		t.Fatal("no local function library")
	}
	if len(pkg.Jams()) != 3 {
		t.Fatalf("jams = %d", len(pkg.Jams()))
	}
}

func TestPackageEncodeDecode(t *testing.T) {
	pkg, err := BuildBenchPackage()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodePackage(pkg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != pkg.Name || len(back.Elements) != len(pkg.Elements) {
		t.Fatalf("package round trip: %s %d", back.Name, len(back.Elements))
	}
	bi, _ := back.Element("jam_iput")
	pi, _ := pkg.Element("jam_iput")
	if bi.Jam.ShippedSize() != pi.Jam.ShippedSize() {
		t.Fatal("jam lost in round trip")
	}
	if back.LocalLib == nil {
		t.Fatal("local lib lost")
	}
}

func TestInjectedSSSum(t *testing.T) {
	bn := newBench(t, 1024, quickCfg(), ChannelOptions{})
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var ret uint64
	bn.b.OnExecuted = func(r uint64, _ sim.Duration, err error) {
		if err != nil {
			t.Errorf("exec: %v", err)
		}
		ret = r
	}
	if err := inject(bn.ab.Handle("tcbench", "jam_sssum"), [2]uint64{}, payload); err != nil {
		t.Fatal(err)
	}
	bn.c.Run()
	want := expectedSum(payload)
	if ret != want {
		t.Fatalf("sum = %d, want %d", ret, want)
	}
	// The result was stored into the server's results array.
	resVA, _ := bn.b.SymbolVA("tc_results")
	v, err := bn.b.AS.ReadU64(resVA)
	if err != nil || v != want {
		t.Fatalf("tc_results[0] = %d, %v", v, err)
	}
	nextVA, _ := bn.b.SymbolVA("tc_result_next")
	nv, _ := bn.b.AS.ReadU64(nextVA)
	if nv != 1 {
		t.Fatalf("tc_result_next = %d", nv)
	}
}

func TestLocalMatchesInjected(t *testing.T) {
	// The two invocation methods must compute identical results from the
	// same source (paper §IV-B: same package, same code).
	for _, size := range []int{8, 60, 256, 1000} {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i*13 + size)
		}
		run := func(local bool) uint64 {
			bn := newBench(t, 2048, quickCfg(), ChannelOptions{})
			var ret uint64
			bn.b.OnExecuted = func(r uint64, _ sim.Duration, err error) {
				if err != nil {
					t.Errorf("exec: %v", err)
				}
				ret = r
			}
			var err error
			if local {
				err = callLocal(bn.ab.Handle("tcbench", "jam_sssum"), [2]uint64{}, payload)
			} else {
				err = inject(bn.ab.Handle("tcbench", "jam_sssum"), [2]uint64{}, payload)
			}
			if err != nil {
				t.Fatal(err)
			}
			bn.c.Run()
			return ret
		}
		li, inj := run(true), run(false)
		if li != inj || li != expectedSum(payload) {
			t.Fatalf("size %d: local %d, injected %d, want %d", size, li, inj, expectedSum(payload))
		}
	}
}

func TestIndirectPut(t *testing.T) {
	bn := newBench(t, 2048, quickCfg(), ChannelOptions{})
	payload := []byte("indirect put payload: the client controls placement")
	var offsets []uint64
	bn.b.OnExecuted = func(r uint64, _ sim.Duration, err error) {
		if err != nil {
			t.Errorf("exec: %v", err)
		}
		offsets = append(offsets, r)
	}
	// Same key twice, then a different key.
	for _, key := range []uint64{42, 42, 99} {
		if err := inject(bn.ab.Handle("tcbench", "jam_iput"), [2]uint64{key, 0}, payload); err != nil {
			t.Fatal(err)
		}
	}
	bn.c.Run()
	if len(offsets) != 3 {
		t.Fatalf("executed %d times", len(offsets))
	}
	if offsets[0] != offsets[1] {
		t.Fatalf("same key landed at different offsets: %d vs %d", offsets[0], offsets[1])
	}
	// Payload actually arrived at heap+offset.
	heapVA, _ := bn.b.SymbolVA("tc_heap")
	got, err := bn.b.AS.ReadBytes(heapVA+offsets[0], len(payload))
	if err != nil || string(got) != string(payload) {
		t.Fatalf("heap data %q, %v", got, err)
	}
	// The hash table recorded both keys.
	tableVA, _ := bn.b.SymbolVA("tc_table")
	foundKeys := map[uint64]bool{}
	for slot := 0; slot < 65536; slot++ {
		k, _ := bn.b.AS.ReadU64(tableVA + uint64(slot*16))
		if k != 0 {
			foundKeys[k] = true
		}
	}
	if !foundKeys[42] || !foundKeys[99] {
		t.Fatalf("table keys %v", foundKeys)
	}
}

func TestJamHelloPrintfWithTravellingRodata(t *testing.T) {
	bn := newBench(t, 1024, quickCfg(), ChannelOptions{})
	if err := inject(bn.ab.Handle("tcbench", "jam_hello"), [2]uint64{7, 0}, []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	bn.c.Run()
	out := bn.b.Stdout.String()
	if !strings.Contains(out, "hello from node 7 (payload 3 bytes)") {
		t.Fatalf("stdout = %q", out)
	}
}

func TestInjectMissingSymbolFails(t *testing.T) {
	// Receiver without the ried: the namespace exchange lacks tc_table.
	pkg, err := BuildBenchPackage()
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(DefaultClusterConfig())
	a, _ := c.AddNode("A", quickCfg())
	b, _ := c.AddNode("B", quickCfg())
	if _, err := a.InstallPackage(pkg); err != nil {
		t.Fatal(err)
	}
	// B gets no package at all.
	g := mailbox.Geometry{Banks: 1, Slots: 1, FrameSize: 2048}
	ch := connect(t, a, b, mailbox.DefaultReceiverConfig(g), ChannelOptions{})
	h := ch.Handle("tcbench", "jam_iput")
	err = inject(h, [2]uint64{1, 0}, nil)
	if err == nil || !strings.Contains(err.Error(), "tc_") {
		t.Fatalf("inject without ried: %v", err)
	}
	// Binding is lazy and per method: once B installs the package, Local
	// Function sends through the handle whose inject bind failed work
	// (B's IDs resolve at send time), and injects work after a fresh
	// namespace exchange.
	if _, err := b.InstallPackage(pkg); err != nil {
		t.Fatal(err)
	}
	var rets []uint64
	b.OnExecuted = func(r uint64, _ sim.Duration, err error) {
		if err != nil {
			t.Errorf("exec: %v", err)
		}
		rets = append(rets, r)
	}
	if err := callLocal(h, [2]uint64{1, 0}, nil); err != nil {
		t.Fatalf("local send after a failed inject bind: %v", err)
	}
	c.Run()
	ch.RefreshNames()
	if err := inject(h, [2]uint64{1, 0}, nil); err != nil {
		t.Fatal(err)
	}
	c.Run()
	// Same key, same slot: both methods ran the same put.
	if len(rets) != 2 || rets[0] != rets[1] {
		t.Fatalf("results %v, want two equal offsets", rets)
	}
}

func TestAutoSwitchToLocal(t *testing.T) {
	bn := newBench(t, 1024, quickCfg(), ChannelOptions{AutoSwitchAfter: 2})
	var kinds []uint8
	bn.ab.Recv.OnProcessed = func(d *mailbox.Delivery, _ sim.Time) { kinds = append(kinds, d.Kind) }
	h := bn.ab.Handle("tcbench", "jam_sssum")
	usr := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	// Bursts never auto-switch and do not count toward the threshold —
	// a one-element burst included, before and after the singles cross it.
	if err := injectBurst(h, make([][2]uint64, 1), usr); err != nil {
		t.Fatal(err)
	}
	if err := injectBurst(h, make([][2]uint64, 3), usr); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := inject(h, [2]uint64{}, usr); err != nil {
			t.Fatal(err)
		}
	}
	if err := injectBurst(h, make([][2]uint64, 1), usr); err != nil {
		t.Fatal(err)
	}
	bn.c.Run()
	const I, L = mailbox.KindInjected, mailbox.KindLocal
	want := []uint8{I, I, I, I, I, I, L, L, L, I}
	if len(kinds) != len(want) {
		t.Fatalf("delivered %d, want %d", len(kinds), len(want))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("wire kinds %v, want %v", kinds, want)
		}
	}
}

func TestSecureExecMode(t *testing.T) {
	cfg := quickCfg()
	cfg.SecureExec = true
	cfg.CheckExec = true
	bn := newBench(t, 1024, cfg, ChannelOptions{})
	payload := make([]byte, 32)
	for i := range payload {
		payload[i] = byte(i)
	}
	var ret uint64
	var execErr error
	bn.b.OnExecuted = func(r uint64, _ sim.Duration, err error) { ret, execErr = r, err }
	if err := inject(bn.ab.Handle("tcbench", "jam_sssum"), [2]uint64{}, payload); err != nil {
		t.Fatal(err)
	}
	bn.c.Run()
	if execErr != nil {
		t.Fatal(execErr)
	}
	if ret != expectedSum(payload) {
		t.Fatalf("secure exec sum = %d, want %d", ret, expectedSum(payload))
	}
}

func TestPerProcessOverloading(t *testing.T) {
	// Paper §IV: "A program can easily define different functions with
	// the same symbolic name for different processes, so that when a
	// message arrives it will call a function specific to that process."
	mkRied := func(factor int) map[string]string {
		return map[string]string{
			"ried_scale.rds": `
.text
.global tc_scale
tc_scale:
    muli r0, r0, ` + itoa(factor) + `
    ret
`,
		}
	}
	jamSrc := `
.extern tc_scale
.global jam_scaled
jam_scaled:
    addi sp, sp, -16
    st   lr, [sp+0]
    ld   r0, [r0+0]
    callg tc_scale
    ld   lr, [sp+0]
    addi sp, sp, 16
    ret
`
	pkgB, err := BuildPackage("scaled", map[string]string{"jam_scaled.ams": jamSrc, "ried_scale.rds": mkRied(10)["ried_scale.rds"]})
	if err != nil {
		t.Fatal(err)
	}
	pkgC, err := BuildPackage("scaled", map[string]string{"jam_scaled.ams": jamSrc, "ried_scale.rds": mkRied(100)["ried_scale.rds"]})
	if err != nil {
		t.Fatal(err)
	}
	pkgA, err := BuildPackage("scaled", map[string]string{"jam_scaled.ams": jamSrc, "ried_scale.rds": mkRied(1)["ried_scale.rds"]})
	if err != nil {
		t.Fatal(err)
	}

	c := NewCluster(DefaultClusterConfig())
	a, _ := c.AddNode("A", quickCfg())
	b, _ := c.AddNode("B", quickCfg())
	d, _ := c.AddNode("C", quickCfg())
	if _, err := a.InstallPackage(pkgA); err != nil {
		t.Fatal(err)
	}
	if _, err := b.InstallPackage(pkgB); err != nil {
		t.Fatal(err)
	}
	if _, err := d.InstallPackage(pkgC); err != nil {
		t.Fatal(err)
	}
	g := mailbox.Geometry{Banks: 1, Slots: 2, FrameSize: 512}
	chB := connect(t, a, b, mailbox.DefaultReceiverConfig(g), ChannelOptions{})
	chC := connect(t, a, d, mailbox.DefaultReceiverConfig(g), ChannelOptions{})
	var retB, retC uint64
	b.OnExecuted = func(r uint64, _ sim.Duration, err error) {
		if err != nil {
			t.Errorf("B: %v", err)
		}
		retB = r
	}
	d.OnExecuted = func(r uint64, _ sim.Duration, err error) {
		if err != nil {
			t.Errorf("C: %v", err)
		}
		retC = r
	}
	// The same jam, injected to two processes, resolves tc_scale
	// differently on each.
	if err := inject(chB.Handle("scaled", "jam_scaled"), [2]uint64{5, 0}, nil); err != nil {
		t.Fatal(err)
	}
	if err := inject(chC.Handle("scaled", "jam_scaled"), [2]uint64{5, 0}, nil); err != nil {
		t.Fatal(err)
	}
	c.Run()
	if retB != 50 || retC != 500 {
		t.Fatalf("overloading: B=%d (want 50) C=%d (want 500)", retB, retC)
	}
}

func TestRiedHotSwapChangesBehaviour(t *testing.T) {
	// Remote linking update: loading a new ried version rebinds the name
	// and subsequent messages see the new behaviour, without restarting.
	jamSrc := `
.extern tc_op
.global jam_op
jam_op:
    addi sp, sp, -16
    st   lr, [sp+0]
    ld   r0, [r0+0]
    callg tc_op
    ld   lr, [sp+0]
    addi sp, sp, 16
    ret
`
	v1 := `
.text
.global tc_op
tc_op:
    addi r0, r0, 1
    ret
`
	v2 := `
.text
.global tc_op
tc_op:
    muli r0, r0, 2
    ret
`
	pkg, err := BuildPackage("ops", map[string]string{"jam_op.ams": jamSrc, "ried_op.rds": v1})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(DefaultClusterConfig())
	a, _ := c.AddNode("A", quickCfg())
	b, _ := c.AddNode("B", quickCfg())
	if _, err := a.InstallPackage(pkg); err != nil {
		t.Fatal(err)
	}
	if _, err := b.InstallPackage(pkg); err != nil {
		t.Fatal(err)
	}
	g := mailbox.Geometry{Banks: 1, Slots: 2, FrameSize: 512}
	ch := connect(t, a, b, mailbox.DefaultReceiverConfig(g), ChannelOptions{})
	var results []uint64
	b.OnExecuted = func(r uint64, _ sim.Duration, err error) {
		if err != nil {
			t.Errorf("exec: %v", err)
		}
		results = append(results, r)
	}
	if err := inject(ch.Handle("ops", "jam_op"), [2]uint64{10, 0}, nil); err != nil {
		t.Fatal(err)
	}
	c.Run()

	// Hot-swap: build and install v2 of the ried, replacing the binding.
	pkg2, err := BuildPackage("ops2", map[string]string{"ried_op.rds": v2})
	if err != nil {
		t.Fatal(err)
	}
	riedV2, _ := pkg2.Element("ried_op")
	if _, err := b.InstallRied(riedV2.Ried, true); err != nil {
		t.Fatal(err)
	}
	ch.RefreshNames()

	if err := inject(ch.Handle("ops", "jam_op"), [2]uint64{10, 0}, nil); err != nil {
		t.Fatal(err)
	}
	c.Run()
	if len(results) != 2 || results[0] != 11 || results[1] != 20 {
		t.Fatalf("hot swap results %v, want [11 20]", results)
	}
}

func TestTimingPathProducesCosts(t *testing.T) {
	cfg := DefaultNodeConfig()
	cfg.MemBytes = 32 << 20
	bn := newBench(t, 2048, cfg, ChannelOptions{})
	var cost sim.Duration
	bn.b.OnExecuted = func(_ uint64, c sim.Duration, err error) {
		if err != nil {
			t.Errorf("exec: %v", err)
		}
		cost = c
	}
	if err := inject(bn.ab.Handle("tcbench", "jam_iput"), [2]uint64{7, 0}, make([]byte, 256)); err != nil {
		t.Fatal(err)
	}
	bn.c.Run()
	if cost <= 0 {
		t.Fatal("no execution cost recorded")
	}
	if bn.b.Counter.Total() <= 0 {
		t.Fatal("no cycles accounted")
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var digits []byte
	for v > 0 {
		digits = append([]byte{byte('0' + v%10)}, digits...)
		v /= 10
	}
	return string(digits)
}
