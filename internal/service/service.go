// Package service is the sharded KV service tier over the Dash-EH engine:
// the shape every production embedding of Dash ends up with (a parameter
// server, a feature store) — N fully independent tables behind one front
// door.
//
// Two layers:
//
//   - Shards — N independent core.Tables, each with its own pmem.Pool,
//     epoch manager and record log: a reader stalled on one shard pins only
//     that shard's reclamation. Keys route to shards by the high bits of a
//     *routing* hash whose seed differs from every per-table hash seed, so
//     shard routing and each table's MSB directory indexing draw from
//     independent bit streams.
//   - Frontend — a router (frontend.go): Submit routes a
//     Get/Insert/Update/Delete request to its key's shard and runs it there
//     on the caller's goroutine, and Wait returns its result. The tier owns
//     no goroutine, queue or lock; parallelism is the number of clients.
//
// Nothing above a single table's crash consistency changes: each shard is a
// complete, independently recoverable Dash table, and a request is
// completed only after its operation's own fence, so every acknowledged
// operation is durable in its shard's pool.
package service

import (
	"fmt"
	"math/bits"

	"dash/internal/core"
	"dash/internal/hashfn"
	"dash/internal/pmem"
)

// routingSeedSalt decorrelates the shard-routing hash from the per-table
// hashes. Routing MUST NOT reuse a table's hash seed: shard selection takes
// the hash's top bits, and so does each table's MSB directory index — with
// a shared seed every key inside one shard would carry the same top bits,
// collapsing the per-shard directories onto a fraction of their entries.
// With an independent seed the two decisions are uncorrelated.
const routingSeedSalt = 0x737663726f757465 // "svcroute"

// tableSeedSalt derives each shard table's hash seed from the service seed
// and shard index; the odd multiplier keeps seeds distinct and nonzero.
const tableSeedSalt = 0x9e3779b97f4a7c15

// Config configures New.
type Config struct {
	// Shards is the shard count; it must be a power of two so routing can
	// take the top bits of the routing hash. Defaults to 1.
	Shards int
	// PoolSize is the PM pool capacity per shard, in bytes.
	PoolSize uint64
	// Seed seeds both the routing hash and (derived per shard) each table's
	// hash. Reopening the same images requires the same seed, because the
	// routing seed is DRAM-only state.
	Seed uint64
	// TrackCrashes enables crash tracking on every shard's pool (see
	// pmem.Options).
	TrackCrashes bool
}

// Shards is the sharded table layer: N independent core.Tables with
// pool-per-shard isolation. Routing is deterministic in the config seed, so
// a key always lands on the same shard across runs and restarts.
type Shards struct {
	routingSeed uint64
	shift       uint // 64 - log2(n); 64 means a single shard
	tables      []*core.Table
	pools       []*pmem.Pool
}

// allocShards allocates the layer for n shards (a power of two) routed by seed.
func allocShards(n int, seed uint64) (*Shards, error) {
	if n <= 0 || bits.OnesCount(uint(n)) != 1 {
		return nil, fmt.Errorf("service: shard count %d is not a power of two", n)
	}
	return &Shards{
		routingSeed: seed ^ routingSeedSalt,
		shift:       64 - uint(bits.TrailingZeros(uint(n))),
		tables:      make([]*core.Table, n),
		pools:       make([]*pmem.Pool, n),
	}, nil
}

// New creates cfg.Shards fresh shards, each a newly formatted table in its
// own pool.
func New(cfg Config) (*Shards, error) {
	n := cfg.Shards
	if n == 0 {
		n = 1
	}
	s, err := allocShards(n, cfg.Seed)
	if err != nil {
		return nil, err
	}
	for i := range s.tables {
		pool, err := pmem.NewPool(pmem.Options{Size: cfg.PoolSize, TrackCrashes: cfg.TrackCrashes})
		if err != nil {
			return nil, fmt.Errorf("service: shard %d pool: %w", i, err)
		}
		s.pools[i] = pool
		s.tables[i], err = core.Create(pool, core.Options{Seed: tableSeed(cfg.Seed, i)})
		if err != nil {
			return nil, fmt.Errorf("service: shard %d create: %w", i, err)
		}
	}
	return s, nil
}

// Open revives shards from existing pools — the restart path. The pools
// must hold the durable images of a Shards created with the same cfg.Seed
// (each table's own hash seed is persistent in its root; only the routing
// seed is re-derived), in the same order; the shard count is len(pools).
func Open(pools []*pmem.Pool, cfg Config) (*Shards, error) {
	s, err := allocShards(len(pools), cfg.Seed)
	if err != nil {
		return nil, err
	}
	for i, pool := range pools {
		s.pools[i] = pool
		if s.tables[i], err = core.Open(pool); err != nil {
			return nil, fmt.Errorf("service: shard %d open: %w", i, err)
		}
	}
	return s, nil
}

// tableSeed derives shard i's table hash seed: distinct per shard, nonzero
// (|1), and decorrelated from the routing seed by construction (the routing
// hash uses seed^routingSeedSalt, never a table seed).
func tableSeed(seed uint64, i int) uint64 {
	return (seed+uint64(i)+1)*tableSeedSalt | 1
}

// N returns the shard count.
func (s *Shards) N() int { return len(s.tables) }

// shardOf returns the shard index a routing hash names: its top log2(N)
// bits (a shift by 64, the single-shard case, yields 0).
func (s *Shards) shardOf(h uint64) int { return int(h >> s.shift) }

// Route returns the shard index owning a uint64 key: the top log2(N) bits
// of the routing hash.
func (s *Shards) Route(key uint64) int {
	if s.shift == 64 {
		return 0
	}
	return s.shardOf(hashfn.HashU64(key, s.routingSeed))
}

// RouteB returns the shard index owning a []byte key. An 8-byte key routes
// with its uint64 alias, RouteB(le(k)) == Route(k): hashfn.Hash64 of the
// encoding equals HashU64 of the word under the same routing seed, so both
// spellings of a key reach the shard that holds it.
func (s *Shards) RouteB(key []byte) int {
	if s.shift == 64 {
		return 0
	}
	return s.shardOf(hashfn.Hash64(key, s.routingSeed))
}

// Table returns shard i's table.
func (s *Shards) Table(i int) *core.Table { return s.tables[i] }

// Pool returns shard i's pool.
func (s *Shards) Pool(i int) *pmem.Pool { return s.pools[i] }

// Count sums the live record counts of all shards (completing any
// in-flight lazy recovery, per core.Table.Count).
func (s *Shards) Count() int64 {
	var n int64
	for _, tb := range s.tables {
		n += tb.Count()
	}
	return n
}

// PMStats sums PM traffic across every shard's pool.
func (s *Shards) PMStats() pmem.StatsSnapshot {
	var agg pmem.StatsSnapshot
	for _, p := range s.pools {
		agg = agg.Add(p.Stats())
	}
	return agg
}

// Close shuts every shard down cleanly (see core.Table.Close). The caller
// must be quiescent; close the Frontend first.
func (s *Shards) Close() {
	for _, tb := range s.tables {
		tb.Close()
	}
}
