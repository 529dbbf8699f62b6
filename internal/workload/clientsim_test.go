package workload

import "testing"

func TestClientSimRegistryValid(t *testing.T) {
	seen := map[string]bool{}
	for _, sim := range ClientSims {
		if sim.Name == "" {
			t.Fatal("registered sim without a name")
		}
		if seen[sim.Name] {
			t.Fatalf("duplicate sim name %q", sim.Name)
		}
		seen[sim.Name] = true
		if err := sim.validate(); err != nil {
			t.Fatalf("sim %q invalid: %v", sim.Name, err)
		}
		got, ok := ClientSimByName(sim.Name)
		if !ok || got.Name != sim.Name {
			t.Fatalf("ClientSimByName(%q) lookup failed", sim.Name)
		}
	}
	if _, ok := ClientSimByName("no-such-sim"); ok {
		t.Fatal("ClientSimByName found a sim that does not exist")
	}
	if len(ClientSimNames()) != len(ClientSims) {
		t.Fatal("ClientSimNames length mismatch")
	}
}

// SpecFor must be a pure function of the key so preload, reads and fresh
// inserts of one key always encode it the same way.
func TestSpecForDeterministic(t *testing.T) {
	sim, _ := ClientSimByName("svc-tenants")
	for k := uint64(0); k < 100; k++ {
		a, b := sim.SpecFor(k), sim.SpecFor(k)
		if a != b {
			t.Fatalf("SpecFor(%d) unstable", k)
		}
		want := &sim.Tenants[k%uint64(len(sim.Tenants))]
		if a != want {
			t.Fatalf("SpecFor(%d) = %v, want tenant %d", k, a, k%uint64(len(sim.Tenants)))
		}
	}
	plain, _ := ClientSimByName("svc-balanced")
	if plain.SpecFor(1) != nil {
		t.Fatal("uint64-mode sim returned a VarSpec")
	}
	if plain.Var() {
		t.Fatal("svc-balanced reports Var")
	}
	if tenants, _ := ClientSimByName("svc-tenants"); !tenants.Var() {
		t.Fatal("svc-tenants does not report Var")
	}
}

// simOp is one streamed operation with its session-boundary marker.
type simOp struct {
	Op
	NewSession bool
}

func simStreamOps(t *testing.T, cfg SimConfig, worker, n int) []simOp {
	t.Helper()
	g, err := NewSimGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := g.Stream(worker)
	ops := make([]simOp, n)
	for i := range ops {
		ops[i].NewSession = s.NewSession()
		ops[i].Op = s.Next()
	}
	return ops
}

// Same (config, worker) must replay the identical op sequence, including
// session boundaries; distinct workers must diverge.
func TestSimStreamDeterministic(t *testing.T) {
	sim, _ := ClientSimByName("svc-churn")
	cfg := SimConfig{Keyspace: 4096, Seed: 9, Sim: sim}
	a := simStreamOps(t, cfg, 1, 2000)
	b := simStreamOps(t, cfg, 1, 2000)
	other := simStreamOps(t, cfg, 2, 2000)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs on replay: %+v vs %+v", i, a[i], b[i])
		}
		if a[i] != other[i] {
			same = false
		}
	}
	if same {
		t.Fatal("two workers produced identical streams")
	}
}

// svc-churn's session schedule: NewSession exactly every SessionOps ops,
// never on the first op.
func TestSimSessionBoundaries(t *testing.T) {
	sim, _ := ClientSimByName("svc-churn")
	if sim.SessionOps == 0 {
		t.Fatal("svc-churn has no session schedule")
	}
	cfg := SimConfig{Keyspace: 1024, Seed: 3, Sim: sim}
	ops := simStreamOps(t, cfg, 0, int(3*sim.SessionOps+5))
	for i, op := range ops {
		want := i > 0 && int64(i)%sim.SessionOps == 0
		if op.NewSession != want {
			t.Fatalf("op %d NewSession = %v, want %v", i, op.NewSession, want)
		}
	}
}

// Hot-shard skew: with ShardTheta set, positive-op ranks must concentrate on
// shard 0 (the hottest) far beyond a uniform spread, and every rank must
// come from the bucket of the shard the zipf picked.
func TestSimHotShardSkew(t *testing.T) {
	sim, _ := ClientSimByName("svc-hot-shard")
	const shards = 4
	shardOf := func(rank uint64) int { return int(rank % shards) }
	cfg := SimConfig{Keyspace: 8192, Seed: 5, Sim: sim, NumShards: shards, ShardOf: shardOf}
	ops := simStreamOps(t, cfg, 0, 20000)
	var perShard [shards]int
	var positives int
	for _, op := range ops {
		if op.Kind == OpRead || op.Kind == OpUpdate || op.Kind == OpDelete {
			perShard[shardOf(op.Key)]++
			positives++
		}
	}
	if positives == 0 {
		t.Fatal("no positive ops generated")
	}
	hot := float64(perShard[0]) / float64(positives)
	if hot < 0.4 {
		t.Fatalf("hot shard got %.2f of positive ops, want > 0.4 under theta %g", hot, sim.ShardTheta)
	}
	if perShard[shards-1] >= perShard[0] {
		t.Fatalf("coldest shard (%d ops) not colder than hottest (%d)", perShard[shards-1], perShard[0])
	}

	// Single-shard baseline degenerates to the base distribution instead of
	// erroring (the gate's 1×1 comparison run depends on this).
	if _, err := NewSimGenerator(SimConfig{Keyspace: 8192, Seed: 5, Sim: sim, NumShards: 1}); err != nil {
		t.Fatalf("single-shard hot-shard generator: %v", err)
	}
}
