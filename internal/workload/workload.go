// Package workload generates deterministic key/value benchmark workloads:
// named operation mixes over uniform or Zipfian key distributions, matching
// the microbenchmarks the Dash paper is evaluated on (§6: insert-only,
// positive/negative search, deletes, and YCSB-style mixed workloads).
//
// Everything is driven by explicit seeds — no clock, no global PRNG — so a
// (Config, worker) pair always replays the identical operation sequence.
// That is what makes benchmark numbers comparable across runs and PRs.
//
// Key namespaces. The generator partitions the 64-bit key space so the three
// kinds of keys can never collide:
//
//   - PreloadKey(i), i ∈ [0, Keyspace): keys the harness inserts before the
//     run. Positive reads, updates and deletes draw ranks from the key
//     distribution and target these.
//   - negative-read keys: bit 63 set; never inserted, so every lookup misses.
//   - fresh-insert keys: bit 62 set, partitioned per worker; each insert
//     produces a key never seen before, so insert-heavy runs measure real
//     inserts rather than ErrKeyExists churn.
//
// Keys are raw indexes, not scrambled: the table hashes every key, so key
// structure carries no layout information, and rank r of the Zipfian always
// means the same physical key — the hot set is stable across runs.
package workload

import (
	"fmt"
	"sort"
	"strings"
)

// OpKind enumerates the operations a stream can emit.
type OpKind uint8

const (
	// OpInsert inserts a fresh never-before-seen key.
	OpInsert OpKind = iota
	// OpRead looks up a key from the preloaded range (a hit, unless a
	// delete-bearing mix removed it).
	OpRead
	// OpReadNeg looks up a key from the never-inserted range (always a miss).
	OpReadNeg
	// OpUpdate overwrites the value of a key from the preloaded range.
	OpUpdate
	// OpDelete removes a key from the preloaded range.
	OpDelete

	numOpKinds = 5
)

// String is the operation kind's name.
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpRead:
		return "read"
	case OpReadNeg:
		return "read-neg"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Op is one generated operation.
type Op struct {
	Kind OpKind
	Key  uint64
}

// Mix is a named operation mix; the weights are percentages summing to 100.
// A non-nil Var makes the mix variable-length: the harness encodes every
// key and value through the VarSpec and drives the engine's []byte API
// instead of the inline uint64 one.
type Mix struct {
	Name string
	// Percent holds the weight of each OpKind, indexed by OpKind.
	Percent [numOpKinds]int
	// Var, when non-nil, selects variable-length key/value encoding.
	Var *VarSpec
}

// Mixes is the registry of named mixes, mirroring the paper's microbenchmarks
// (§6.2) and the YCSB core workloads its mixed-load figures reference, plus
// the var-* variants that drive the same shapes through the
// variable-length record path (16–128-byte keys and values).
var Mixes = []Mix{
	{Name: "insert", Percent: pct(100, 0, 0, 0, 0)},
	{Name: "read", Percent: pct(0, 100, 0, 0, 0)},
	{Name: "read-neg", Percent: pct(0, 0, 100, 0, 0)},
	{Name: "balanced", Percent: pct(50, 50, 0, 0, 0)},
	{Name: "ycsb-a", Percent: pct(0, 50, 0, 50, 0)},
	{Name: "ycsb-b", Percent: pct(0, 95, 0, 5, 0)},
	{Name: "delete-heavy", Percent: pct(25, 25, 0, 0, 50)},
	{Name: "var-insert", Percent: pct(100, 0, 0, 0, 0), Var: &DefaultVarSpec},
	{Name: "var-read", Percent: pct(0, 100, 0, 0, 0), Var: &DefaultVarSpec},
	{Name: "var-ycsb-b", Percent: pct(0, 95, 0, 5, 0), Var: &DefaultVarSpec},
}

func pct(insert, read, readNeg, update, del int) [numOpKinds]int {
	return [numOpKinds]int{OpInsert: insert, OpRead: read, OpReadNeg: readNeg, OpUpdate: update, OpDelete: del}
}

// MixByName looks a mix up in the registry.
func MixByName(name string) (Mix, bool) {
	for _, m := range Mixes {
		if m.Name == name {
			return m, true
		}
	}
	return Mix{}, false
}

// MixNames returns the registered mix names, sorted.
func MixNames() []string {
	names := make([]string, len(Mixes))
	for i, m := range Mixes {
		names[i] = m.Name
	}
	sort.Strings(names)
	return names
}

func (m Mix) validate() error {
	sum := 0
	for _, p := range m.Percent {
		if p < 0 {
			return fmt.Errorf("workload: mix %q has a negative weight", m.Name)
		}
		sum += p
	}
	if sum != 100 {
		return fmt.Errorf("workload: mix %q weights sum to %d, want 100", m.Name, sum)
	}
	if m.Var != nil {
		if err := m.Var.validate(); err != nil {
			return err
		}
	}
	return nil
}

// String renders the mix as "name(insert:50 read:50)", variable-length
// mixes with their key/value length ranges appended.
func (m Mix) String() string {
	var parts []string
	for k, p := range m.Percent {
		if p > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", OpKind(k), p))
		}
	}
	if v := m.Var; v != nil {
		parts = append(parts, fmt.Sprintf("k:%d-%dB v:%d-%dB", v.MinKeyLen, v.MaxKeyLen, v.MinValLen, v.MaxValLen))
	}
	return m.Name + "(" + strings.Join(parts, " ") + ")"
}

// Config describes one workload.
type Config struct {
	// Keyspace is the number of preloaded keys; positive reads, updates and
	// deletes draw ranks in [0, Keyspace).
	Keyspace uint64
	// Theta is the Zipfian skew in (0, 1); 0 selects the uniform distribution.
	Theta float64
	// Mix is the operation mix.
	Mix Mix
	// Seed seeds every derived stream.
	Seed uint64
}

const (
	negKeyBit    = uint64(1) << 63
	insertKeyBit = uint64(1) << 62
	// insertWorkerShift gives each worker 2^40 fresh insert keys.
	insertWorkerShift = 40
)

// PreloadKey returns the i'th preloaded key; the harness must insert
// PreloadKey(0..Keyspace-1) before running streams so positive operations hit.
func PreloadKey(i uint64) uint64 { return i }

// Generator derives deterministic per-worker operation streams for one
// Config. Safe for concurrent use once constructed.
type Generator struct {
	cfg Config
	z   *zipf // nil for uniform
}

// NewGenerator validates cfg and precomputes distribution state (O(Keyspace)
// for Zipfian, once, shared by all streams).
func NewGenerator(cfg Config) (*Generator, error) {
	if cfg.Keyspace == 0 {
		return nil, fmt.Errorf("workload: keyspace must be > 0")
	}
	if cfg.Keyspace >= insertKeyBit {
		return nil, fmt.Errorf("workload: keyspace %d collides with the reserved key namespaces", cfg.Keyspace)
	}
	if err := cfg.Mix.validate(); err != nil {
		return nil, err
	}
	g := &Generator{cfg: cfg}
	if cfg.Theta != 0 {
		z, err := newZipf(cfg.Keyspace, cfg.Theta)
		if err != nil {
			return nil, err
		}
		g.z = z
	}
	return g, nil
}

// Stream returns worker's operation stream. The same (Config, worker) pair
// always yields the identical sequence; distinct workers are decorrelated.
// A Stream is not safe for concurrent use — one per goroutine.
func (g *Generator) Stream(worker int) *Stream {
	s := &Stream{
		g:         g,
		r:         newRNG(mix64(g.cfg.Seed ^ mix64(uint64(worker)+0x5ca1ab1e))),
		insertKey: insertKeyBit | uint64(worker)<<insertWorkerShift,
	}
	acc := 0
	for k, p := range g.cfg.Mix.Percent {
		acc += p
		s.cum[k] = acc
	}
	return s
}

// Stream emits the operation sequence of one worker.
type Stream struct {
	g         *Generator
	r         *rng
	cum       [numOpKinds]int // cumulative mix percentages
	insertKey uint64          // next fresh insert key

	// rankFn, when set, overrides the rank distribution — the hook the
	// client-simulation streams use for shard-level skew (clientsim.go).
	rankFn func(*rng) uint64
}

// rank draws a key rank in [0, Keyspace) from the configured distribution.
func (s *Stream) rank() uint64 {
	if s.rankFn != nil {
		return s.rankFn(s.r)
	}
	if s.g.z != nil {
		return s.g.z.next(s.r)
	}
	return s.r.uintn(s.g.cfg.Keyspace)
}

// Next returns the next operation.
func (s *Stream) Next() Op {
	d := int(s.r.uintn(100))
	kind := OpKind(0)
	for k, c := range s.cum {
		if d < c {
			kind = OpKind(k)
			break
		}
	}
	switch kind {
	case OpInsert:
		key := s.insertKey
		s.insertKey++
		return Op{Kind: OpInsert, Key: key}
	case OpReadNeg:
		return Op{Kind: OpReadNeg, Key: negKeyBit | s.rank()}
	default: // OpRead, OpUpdate, OpDelete target the preloaded range
		return Op{Kind: kind, Key: PreloadKey(s.rank())}
	}
}
