package service

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"testing"

	"dash/internal/pmem"
)

func newShards(t *testing.T, n int, seed uint64) *Shards {
	t.Helper()
	s, err := New(Config{Shards: n, PoolSize: 16 << 20, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Routing must be a pure function of (seed, key): identical across calls and
// across Shards instances built from the same seed, for both key forms.
func TestRoutingDeterministic(t *testing.T) {
	a := newShards(t, 4, 7)
	b := newShards(t, 4, 7)
	defer a.Close()
	defer b.Close()
	for k := uint64(0); k < 4096; k++ {
		if a.Route(k) != a.Route(k) || a.Route(k) != b.Route(k) {
			t.Fatalf("Route(%d) not deterministic: %d %d %d", k, a.Route(k), a.Route(k), b.Route(k))
		}
		kb := []byte(fmt.Sprintf("key-%d", k))
		if a.RouteB(kb) != b.RouteB(kb) {
			t.Fatalf("RouteB(%q) differs across instances", kb)
		}
	}
	if got := a.Route(1); got < 0 || got >= 4 {
		t.Fatalf("Route out of range: %d", got)
	}
}

// An 8-byte key routes with its uint64 alias: RouteB(le(k)) == Route(k), so
// the frontend sends both spellings of a key to the shard that holds it.
func TestRouteBMatchesRoute(t *testing.T) {
	s := newShards(t, 8, 7)
	defer s.Close()
	rng := rand.New(rand.NewPCG(1, 2))
	keys := []uint64{0, 1 << 63, ^uint64(0)}
	for i := 0; i < 4096; i++ {
		keys = append(keys, rng.Uint64())
	}
	for _, k := range keys {
		if got, want := s.RouteB(binary.LittleEndian.AppendUint64(nil, k)), s.Route(k); got != want {
			t.Fatalf("RouteB(le(%#x)) = %d, Route = %d", k, got, want)
		}
	}
}

// Each key lives only on its routed shard: inserting every key via routing
// and probing every *other* shard must miss everywhere. This is the
// key-space disjointness the tier depends on — a key visible on two shards
// would make Count and deletes ambiguous.
func TestShardKeySpaceDisjoint(t *testing.T) {
	s := newShards(t, 4, 42)
	defer s.Close()
	const keys = 4096
	for k := uint64(0); k < keys; k++ {
		if err := s.Table(s.Route(k)).Insert(k, k+1); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	for k := uint64(0); k < keys; k++ {
		home := s.Route(k)
		for i := 0; i < s.N(); i++ {
			v, ok := s.Table(i).Get(k)
			if i == home {
				if !ok || v != k+1 {
					t.Fatalf("key %d missing on home shard %d", k, home)
				}
			} else if ok {
				t.Fatalf("key %d visible on shard %d, home is %d", k, i, home)
			}
		}
	}
	if got := s.Count(); got != keys {
		t.Fatalf("Count = %d, want %d", got, keys)
	}
}

func TestShardCountValidation(t *testing.T) {
	if _, err := New(Config{Shards: 3, PoolSize: 8 << 20}); err == nil {
		t.Fatal("Shards=3 accepted, want power-of-two error")
	}
	s, err := New(Config{PoolSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.N() != 1 {
		t.Fatalf("default shard count = %d, want 1", s.N())
	}
	if sh := s.Route(12345); sh != 0 {
		t.Fatalf("single-shard Route = %d, want 0", sh)
	}
}

// Reopening the same pools with the same seed must find every key on the
// same shard (table hash seeds are persistent; the routing seed re-derives
// from the config seed).
func TestOpenRestartRoutesIdentically(t *testing.T) {
	s := newShards(t, 2, 99)
	const keys = 2048
	for k := uint64(0); k < keys; k++ {
		if err := s.Table(s.Route(k)).Insert(k, k*3); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	pools := []*pmem.Pool{s.Pool(0), s.Pool(1)}
	s.Close()

	r, err := Open(pools, Config{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for k := uint64(0); k < keys; k++ {
		v, ok := r.Table(r.Route(k)).Get(k)
		if !ok || v != k*3 {
			t.Fatalf("key %d not on its routed shard after reopen (ok=%v v=%d)", k, ok, v)
		}
	}
}

// The fence-batch window is deterministic at the pool level: N inserts
// inside one window cost exactly one real fence, with every per-op ordering
// point elided (vs one-plus fences per insert outside a window). This is the
// primitive the frontend's batch amortization stands on.
func TestFenceBatchWindowDeterministic(t *testing.T) {
	const n = 64
	s := newShards(t, 1, 5)
	defer s.Close()
	pool, tb := s.Pool(0), s.Table(0)

	// Unbatched: every insert pays its own fences.
	base := pool.Stats()
	for k := uint64(0); k < n; k++ {
		if err := tb.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	unbatched := pool.Stats().Sub(base)
	if unbatched.Fences < n {
		t.Fatalf("unbatched fences = %d, want >= %d (one per insert)", unbatched.Fences, n)
	}

	// Batched: the same work inside one window pays one tail fence.
	base = pool.Stats()
	pool.BeginFenceBatch()
	for k := uint64(n); k < 2*n; k++ {
		if err := tb.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	elided := pool.EndFenceBatch()
	batched := pool.Stats().Sub(base)
	if batched.Fences != 1 {
		t.Fatalf("batched fences = %d, want exactly 1 (the tail)", batched.Fences)
	}
	if elided < n {
		t.Fatalf("elided = %d, want >= %d (every per-op fence)", elided, n)
	}
	if batched.FencesElided != elided {
		t.Fatalf("stats elided %d != EndFenceBatch %d", batched.FencesElided, elided)
	}
	if batched.FlushedLines < n {
		t.Fatalf("batched flushed lines = %d, want >= %d (flushes are not elided)", batched.FlushedLines, n)
	}
}
