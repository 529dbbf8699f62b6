package workload

import "fmt"

// Client simulation: the workload family that drives the service tier
// (internal/service) the way a fleet of real clients would, rather than
// the way a single-table microbenchmark does. A ClientSim composes one of
// the registered operation mixes with three service-shaped stressors:
//
//   - hot-shard skew: positive-op ranks are drawn Zipfian *across shards*
//     first (shard 0 hottest), then uniformly within the chosen shard —
//     the skew a popular tenant or partition inflicts on a sharded
//     service, which per-key Zipf on a hashed keyspace can never produce
//     (hashing spreads even a skewed key distribution evenly over shards).
//   - connection churn: a deterministic session schedule — every
//     SessionOps operations the client "reconnects": it drains its
//     pipeline (waits for every outstanding request) before continuing.
//     No sleeping is involved, so throughput stays comparable; what churn
//     costs is batching opportunity, since every drain empties the queues
//     batches are formed from.
//   - mixed tenant profiles: each key belongs deterministically to one of
//     a fixed set of tenants, each with its own VarSpec key/value-size
//     shape, so one run carries small-record and large-record tenants
//     through the same shards' record logs.
//
// Like everything in this package, a simulation is pure function of
// (config, seed, worker): no clock, no global state.

// ClientSim is one named client-simulation profile for the service tier.
type ClientSim struct {
	// Name identifies the simulation in registries, flags and BENCH files.
	Name string
	// Mix is the operation mix each simulated client runs.
	Mix Mix
	// ShardTheta, when non-zero, draws positive-op ranks Zipfian across
	// shards (shard 0 hottest) and uniformly within the chosen shard. Zero
	// leaves rank selection to the base distribution.
	ShardTheta float64
	// SessionOps, when non-zero, is the connection-churn period: every
	// SessionOps operations the client starts a new session, draining its
	// pipeline first (SimStream.NewSession marks the boundary ops).
	SessionOps int64
	// Tenants, when non-empty, gives each key one of these VarSpec shapes
	// (selected by SpecFor) instead of the mix's single Var shape.
	Tenants []VarSpec
}

// ClientSims is the registry of named simulations the service benchmarks
// run: a plain balanced baseline, hot-shard skew, connection churn, and a
// mixed-tenant variable-length profile.
var ClientSims = []ClientSim{
	{Name: "svc-balanced", Mix: simMix("balanced")},
	{Name: "svc-hot-shard", Mix: simMix("ycsb-a"), ShardTheta: 0.99},
	{Name: "svc-churn", Mix: simMix("balanced"), SessionOps: 512},
	{Name: "svc-tenants", Mix: simMix("var-ycsb-b"), Tenants: []VarSpec{
		{MinKeyLen: 8, MaxKeyLen: 16, MinValLen: 8, MaxValLen: 16},     // small-record tenant
		{MinKeyLen: 16, MaxKeyLen: 64, MinValLen: 16, MaxValLen: 64},   // mid-size tenant
		{MinKeyLen: 48, MaxKeyLen: 128, MinValLen: 64, MaxValLen: 128}, // large-record tenant
	}},
}

func simMix(name string) Mix {
	m, ok := MixByName(name)
	if !ok {
		panic(fmt.Sprintf("workload: unknown mix %q in client-sim registry", name))
	}
	return m
}

// ClientSimByName looks a simulation up in the registry. A registered mix's
// name resolves too, to that mix as a simulation with no stressor — no skew,
// no churn, no tenants — whose streams are the mix's own, draw for draw: how
// the harness runs a classic mix cell.
func ClientSimByName(name string) (ClientSim, bool) {
	for _, c := range ClientSims {
		if c.Name == name {
			return c, true
		}
	}
	m, ok := MixByName(name)
	return ClientSim{Name: m.Name, Mix: m}, ok
}

// ClientSimNames returns the registered simulation names, in registry
// order.
func ClientSimNames() []string {
	names := make([]string, len(ClientSims))
	for i, c := range ClientSims {
		names[i] = c.Name
	}
	return names
}

// Var reports whether the simulation drives the variable-length API.
func (c ClientSim) Var() bool { return c.Mix.Var != nil || len(c.Tenants) > 0 }

// SpecFor returns the VarSpec encoding a key's bytes: the key's tenant's
// spec when the simulation has tenants (tenant = key mod tenant count, so
// preload, reads and fresh inserts of one key always agree), else the
// mix's Var spec, else nil (uint64 mode). Every spec embeds the key's 8
// little-endian bytes first (see VarSpec), so encodings stay injective
// across tenant shapes. (Pointer receiver: the harness calls this once per
// operation, and a ClientSim is fifteen words to copy.)
func (c *ClientSim) SpecFor(key uint64) *VarSpec {
	if len(c.Tenants) > 0 {
		return &c.Tenants[key%uint64(len(c.Tenants))]
	}
	return c.Mix.Var
}

func (c ClientSim) validate() error {
	if err := c.Mix.validate(); err != nil {
		return err
	}
	if c.ShardTheta < 0 || c.ShardTheta >= 1 {
		if c.ShardTheta != 0 {
			return fmt.Errorf("workload: sim %q shard theta %g outside (0,1)", c.Name, c.ShardTheta)
		}
	}
	if c.SessionOps < 0 {
		return fmt.Errorf("workload: sim %q negative session ops", c.Name)
	}
	for i, t := range c.Tenants {
		if err := t.validate(); err != nil {
			return fmt.Errorf("workload: sim %q tenant %d: %w", c.Name, i, err)
		}
	}
	return nil
}

// SimConfig configures a client-simulation generator: the base workload
// dimensions plus the simulation profile and the service tier's routing
// oracle (needed only for hot-shard skew).
type SimConfig struct {
	// Keyspace, Theta and Seed mean what they do in Config; the mix comes
	// from Sim.
	Keyspace uint64
	Theta    float64
	Seed     uint64
	// Sim is the simulation profile.
	Sim ClientSim
	// NumShards is the service tier's shard count; required when
	// Sim.ShardTheta is set.
	NumShards int
	// ShardOf maps a preload rank to its shard (the service tier's routing
	// of that rank's key, in whatever encoding the simulation submits it);
	// required when Sim.ShardTheta is set.
	ShardOf func(rank uint64) int
}

// SimGenerator derives deterministic per-client streams of simulated
// service traffic. Safe for concurrent use once constructed.
type SimGenerator struct {
	base       *Generator
	sim        ClientSim
	shardRanks [][]uint64 // hot-shard mode: preload ranks bucketed by shard
	zshard     *zipf
}

// NewSimGenerator validates cfg and precomputes the shard-skew state
// (bucketing every preload rank by shard, O(Keyspace) routing calls, once).
func NewSimGenerator(cfg SimConfig) (*SimGenerator, error) {
	if err := cfg.Sim.validate(); err != nil {
		return nil, err
	}
	base, err := NewGenerator(Config{
		Keyspace: cfg.Keyspace,
		Theta:    cfg.Theta,
		Mix:      cfg.Sim.Mix,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	g := &SimGenerator{base: base, sim: cfg.Sim}
	// Shard skew needs ≥ 2 shards to mean anything; on a single shard the
	// stream degenerates to the base distribution (the right baseline).
	if cfg.Sim.ShardTheta != 0 && cfg.NumShards != 1 {
		if cfg.NumShards <= 0 || cfg.ShardOf == nil {
			return nil, fmt.Errorf("workload: sim %q needs NumShards and ShardOf for shard skew", cfg.Sim.Name)
		}
		g.shardRanks = make([][]uint64, cfg.NumShards)
		for r := uint64(0); r < cfg.Keyspace; r++ {
			sh := cfg.ShardOf(r)
			if sh < 0 || sh >= cfg.NumShards {
				return nil, fmt.Errorf("workload: ShardOf(%d) = %d outside [0,%d)", r, sh, cfg.NumShards)
			}
			g.shardRanks[sh] = append(g.shardRanks[sh], r)
		}
		z, err := newZipf(uint64(cfg.NumShards), cfg.Sim.ShardTheta)
		if err != nil {
			return nil, err
		}
		g.zshard = z
	}
	return g, nil
}

// SimStream emits one simulated client's operation sequence: the base
// Stream — Next is the Stream's own, so a simulation with no stressor
// replays its mix's stream draw for draw — plus the session schedule. Like
// Stream, deterministic per (config, worker) and not safe for concurrent
// use.
type SimStream struct {
	*Stream
	// every > 0 makes each every'th op (the first excepted) open a new
	// session; left counts down to the next one and never reaches zero when
	// every is 0.
	every, left int64
}

// Stream returns client worker's simulated operation stream.
func (g *SimGenerator) Stream(worker int) *SimStream {
	s := g.base.Stream(worker)
	if g.zshard != nil {
		// Shard-skewed rank draw: Zipfian shard pick (shard 0 hottest),
		// uniform rank within it. A shard that owns no preload ranks (tiny
		// keyspaces) redraws — routing hashes spread ranks evenly, so this
		// terminates immediately in practice.
		s.rankFn = func(r *rng) uint64 {
			for {
				b := g.shardRanks[g.zshard.next(r)]
				if len(b) > 0 {
					return b[r.uintn(uint64(len(b)))]
				}
			}
		}
	}
	ss := &SimStream{Stream: s, every: g.sim.SessionOps}
	if ss.every > 0 {
		ss.left = ss.every + 1
	}
	return ss
}

// NewSession reports whether the operation the following Next returns opens
// a new session — a connection-churn boundary: the client must drain its
// pipeline (every outstanding request completed) before submitting it,
// modeling a reconnect. Call it exactly once before each Next.
func (s *SimStream) NewSession() bool {
	s.left--
	if s.left != 0 {
		return false
	}
	s.left = s.every
	return true
}
