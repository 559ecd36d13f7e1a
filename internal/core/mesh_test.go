package core

import (
	"testing"

	"twochains/internal/mailbox"
	"twochains/internal/sim"
)

func quickMeshCfg(nodes, shards int) MeshConfig {
	cfg := DefaultMeshConfig(nodes)
	cfg.Shards = shards
	cfg.Node = quickCfg()
	cfg.Geometry = mailbox.Geometry{Banks: 2, Slots: 4, FrameSize: 2048}
	return cfg
}

func TestMeshShardAssignment(t *testing.T) {
	m, err := NewMesh(quickMeshCfg(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		want := 0
		if i >= 4 {
			want = 1
		}
		if got := m.ShardOf(i); got != want {
			t.Errorf("node %d: shard %d, want %d", i, got, want)
		}
	}
	if _, err := NewMesh(MeshConfig{Nodes: 1}); err == nil {
		t.Error("1-node mesh accepted")
	}
}

// TestMeshWorkerClamp pins the worker-count clamp: requesting more
// workers than shards (tcperf/tcrun default Workers to NumCPU) must
// engage the parallel engine with exactly one executor per shard, and a
// single-shard mesh must stay sequential no matter the request.
func TestMeshWorkerClamp(t *testing.T) {
	cfg := quickMeshCfg(8, 2)
	cfg.Workers = 64
	m, err := NewMesh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cfg.Workers != 2 {
		t.Errorf("recorded workers = %d, want 2", m.Cfg.Workers)
	}
	if m.Cluster.Group == nil {
		t.Fatal("parallel engine did not engage")
	}
	if got := m.Cluster.Group.Workers(); got != 2 {
		t.Errorf("group workers = %d, want 2", got)
	}

	cfg = quickMeshCfg(4, 1)
	cfg.Workers = 8
	m, err = NewMesh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cluster.Group != nil {
		t.Error("single-shard mesh engaged the parallel engine")
	}
	if m.Cfg.Workers != 1 {
		t.Errorf("recorded workers = %d, want 1", m.Cfg.Workers)
	}
}

// TestMeshJamCacheSharedAcrossChannels: two receivers with identical
// namespaces cost the sender exactly one bind; the second channel's
// prepare is a cache hit.
func TestMeshJamCacheSharedAcrossChannels(t *testing.T) {
	m, err := NewMesh(quickMeshCfg(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := BuildBenchPackage()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InstallPackage(pkg); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 32)
	for dst := 1; dst <= 2; dst++ {
		ch, err := m.Channel(0, dst)
		if err != nil {
			t.Fatal(err)
		}
		if err := inject(ch.Handle("tcbench", "jam_sssum"), [2]uint64{}, payload); err != nil {
			t.Fatal(err)
		}
	}
	m.Run()
	st := m.Node(0).JamCacheStats()
	if st.Binds != 1 {
		t.Errorf("binds = %d, want 1 (identical receiver namespaces must share)", st.Binds)
	}
	if st.Hits != 1 {
		t.Errorf("hits = %d, want 1", st.Hits)
	}
	if got := m.Stats().Processed; got != 2 {
		t.Errorf("processed = %d, want 2", got)
	}
}

// TestMeshManySendersOneReceiver: every inbound channel owns its own
// mailbox region, so concurrent senders never collide on slot sequencing
// or credit flags.
func TestMeshManySendersOneReceiver(t *testing.T) {
	m, err := NewMesh(quickMeshCfg(6, 2))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := BuildBenchPackage()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InstallPackage(pkg); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 16)
	want := expectedSum(payload)
	var rets []uint64
	m.Node(0).OnExecuted = func(ret uint64, _ sim.Duration, err error) {
		if err != nil {
			t.Errorf("exec: %v", err)
		}
		rets = append(rets, ret)
	}
	const perSender = 20 // more than one region's slots: exercises credits
	for src := 1; src < 6; src++ {
		ch, err := m.Channel(src, 0)
		if err != nil {
			t.Fatal(err)
		}
		args := make([][2]uint64, perSender)
		if err := injectBurst(ch.Handle("tcbench", "jam_sssum"), args, payload); err != nil {
			t.Fatal(err)
		}
	}
	m.Run()
	if len(rets) != 5*perSender {
		t.Fatalf("executed %d of %d", len(rets), 5*perSender)
	}
	for _, r := range rets {
		if r != want {
			t.Fatalf("ret %d, want %d", r, want)
		}
	}
	if len(m.Node(0).Receivers) != 5 {
		t.Fatalf("receiver regions = %d, want 5", len(m.Node(0).Receivers))
	}
	if st := m.Stats(); st.Batches == 0 || st.CreditStalls == 0 {
		t.Fatalf("stats %+v: want batched puts and credit stalls", st)
	}
}

// TestMeshCrossShardSlower: with timing on, a put crossing the spine
// uplink takes longer than an intra-shard put of the same size.
func TestMeshCrossShardSlower(t *testing.T) {
	run := func(shards int) sim.Duration {
		cfg := quickMeshCfg(4, shards)
		cfg.Node = DefaultNodeConfig()
		cfg.Node.MemBytes = 32 << 20
		m, err := NewMesh(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := BuildBenchPackage()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.InstallPackage(pkg); err != nil {
			t.Fatal(err)
		}
		// Node 0 -> node 3: same shard when shards=1, crossing when 2.
		ch, err := m.Channel(0, 3)
		if err != nil {
			t.Fatal(err)
		}
		var done sim.Time
		err = ch.Handle("tcbench", "jam_sssum").Send(mailbox.KindInjected, [][2]uint64{{}}, false, make([]byte, 64),
			func(info mailbox.SendInfo) { done = info.Delivered })
		if err != nil {
			t.Fatal(err)
		}
		m.Run()
		return sim.Duration(done)
	}
	intra, cross := run(1), run(2)
	if cross <= intra {
		t.Fatalf("cross-shard %v not slower than intra-shard %v", cross, intra)
	}
}
