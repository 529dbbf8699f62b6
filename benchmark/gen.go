package main

// gen.go is the benchmark's own workload generator and oracle: seeded
// random numbers, the Zipfian sampler, and the per-client model that both
// produces a client's op stream and knows the exact reply to every op. It
// shares nothing with internal/workload, so refactors there cannot move the
// benchmark's numbers.

import (
	"encoding/binary"
	"math"
)

// Op kinds. A Get of a never-inserted key is its own kind so its latency is
// reported apart from hits.
const (
	opGet uint8 = iota
	opGetMiss
	opInsert
	opUpdate
	opDelete
	numKinds
)

var kindNames = [numKinds]string{"get", "get_miss", "insert", "update", "delete"}

// op is one pre-generated operation with its expected reply.
type op struct {
	kind uint8
	klen uint8  // var: key length
	vlen uint16 // var: length of the value written, or expected from a Get
	koff uint32 // var: key bytes at arena[koff:]
	voff uint32 // var: value bytes to write at arena[voff:]
	key  uint64 // u64 key
	val  uint64 // u64: value written / expected; var Get: expected first 8 bytes
	last uint64 // var Get: expected last 8 bytes
}

const golden = 0x9e3779b97f4a7c15

// mix64 is the splitmix64 finaliser: a bijection on 64-bit words.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rng is a splitmix64 stream.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += golden
	return mix64(r.s)
}

// intn returns a uniform integer in [0, n), n < 2^32.
func (r *rng) intn(n int) int { return int((r.next() >> 32) * uint64(n) >> 32) }

// float returns a uniform float in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf samples ranks in [0, n) with P(rank k) ∝ 1/(k+1)^theta (Gray et
// al.'s method, as in YCSB).
type zipf struct {
	n, theta, alpha, zetan, eta, half float64
}

func newZipf(n int, theta float64) *zipf {
	z := &zipf{n: float64(n), theta: theta, alpha: 1 / (1 - theta), half: math.Pow(0.5, theta)}
	for i := 1; i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), theta)
	}
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - (1+z.half)/z.zetan)
	return z
}

func (z *zipf) rank(u float64) int {
	uz := u * z.zetan
	switch {
	case uz < 1:
		return 0
	case uz < 1+z.half:
		return 1
	}
	return int(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// Keys. A client's i-th key is model.key(i): the clients' partitions are
// disjoint, and bit 63 is cleared so u64 records stay inline. Indexes with
// missBit set are never inserted; they are the absent keys Gets probe.
const missBit = 1 << 39

// key returns the client's i-th key. The preloaded records (i < preload)
// are the same for every seed — the database is part of the workload's
// definition, like the table's hash seed — while every key the op stream
// brings (fresh inserts, absent probes) is salted with the seed. So a seed
// changes the inputs, and a count metric that hangs on which keys exist
// (the 1-in-1024 hash-sampled mirror cross-check behind read_u64's PM read
// bytes) does not wander with the preloaded population.
func (m *model) key(i uint64) uint64 {
	x := m.client<<40 | i
	if i >= m.preload {
		x ^= m.salt
	}
	return mix64(x) &^ (1 << 63)
}

// valueSeed is the value of (key, version): the u64 value itself, and the
// seed of a variable-length value's bytes.
func valueSeed(key uint64, ver uint32) uint64 { return mix64(key ^ (uint64(ver)+1)*golden) }

// Variable-length records: key 16–32 B, value 64–256 B, both functions of
// the key word (and version). Byte j of a stream is byte j%8 of word j/8,
// words being mix64(seed+j/8), so any part can be computed on its own.
func varKeyLen(key uint64) int  { return 16 + int(mix64(key^0xa5a5)%17) }
func varValLen(seed uint64) int { return 64 + int(seed%193) }

func streamWord(seed uint64, j int) uint64 { return mix64(seed + uint64(j)*golden) }

// appendStream appends the first n bytes of the stream.
func appendStream(dst []byte, seed uint64, n int) []byte {
	base := len(dst)
	for j := 0; j*8 < n; j++ {
		dst = binary.LittleEndian.AppendUint64(dst, streamWord(seed, j))
	}
	return dst[:base+n]
}

// streamU64 is the little-endian word at byte offset off of the stream.
func streamU64(seed uint64, off int) uint64 {
	j, s := off/8, uint(off%8)*8
	w := streamWord(seed, j) >> s
	if s > 0 {
		w |= streamWord(seed, j+1) << (64 - s)
	}
	return w
}

// appendVarKey appends the key bytes: the key word first (so keys are
// unique), then its stream.
func appendVarKey(dst []byte, key uint64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, key)
	return appendStream(dst, key, varKeyLen(key)-8)
}

// mixSpec is a workload's op mix in per mille, and how Gets and Updates pick
// among the live keys.
type mixSpec struct {
	get, getMiss, update, insert, del int
	zipfTheta                         float64 // 0 = uniform
}

// model is one client's oracle: the live keys of its partition with the
// version each holds. Every op is generated by applying it to the model
// first, so the expected reply is exact.
type model struct {
	client    uint64
	preload   uint64 // indexes below this were preloaded
	salt      uint64 // seed-derived, bit 62 set: a salted index never equals a preloaded one
	varLen    bool
	ids       []uint64 // live key indexes, dense
	ver       []uint32 // ver[j] is the version ids[j] holds
	next      uint64   // next fresh index
	miss      uint64   // next never-inserted index
	dead      []uint64 // the most recently deleted indexes (a sample)
	deadN     int
	userBytes int64 // Σ len(key)+len(value) over live records
}

const deadSample = 1024

func newModel(client int, preload int, varLen bool, seed uint64) *model {
	m := &model{client: uint64(client), preload: uint64(preload), salt: mix64(seed) | 1<<62, varLen: varLen, next: uint64(preload),
		ids: make([]uint64, preload), ver: make([]uint32, preload), dead: make([]uint64, deadSample)}
	for i := range m.ids {
		m.ids[i] = uint64(i)
		m.userBytes += m.recordBytes(m.key(uint64(i)), 0)
	}
	return m
}

func (m *model) recordBytes(key uint64, ver uint32) int64 {
	if !m.varLen {
		return 16
	}
	return int64(varKeyLen(key) + varValLen(valueSeed(key, ver)))
}

// generator turns a model and a seeded stream into windows of ops.
type generator struct {
	m     *model
	r     rng
	mix   mixSpec
	z     *zipf
	arena []byte // var: key and value bytes of the current window
}

func (g *generator) pick() int {
	n := len(g.m.ids)
	if g.z == nil {
		return g.r.intn(n)
	}
	return g.z.rank(g.r.float()) % n
}

// fill generates len(ops) ops, advancing the model.
func (g *generator) fill(ops []op) {
	m := g.m
	g.arena = g.arena[:0]
	c1 := g.mix.get
	c2 := c1 + g.mix.getMiss
	c3 := c2 + g.mix.update
	c4 := c3 + g.mix.insert
	for i := range ops {
		o := &ops[i]
		*o = op{}
		x := g.r.intn(1000)
		if len(m.ids) == 0 && x >= c2 {
			x = c3 // nothing live to update or delete: insert
		}
		switch {
		case x < c1 && len(m.ids) > 0:
			j := g.pick()
			o.kind, o.key = opGet, m.key(m.ids[j])
			o.val = valueSeed(o.key, m.ver[j])
		case x < c2:
			o.kind, o.key = opGetMiss, m.key(m.miss|missBit)
			m.miss++
		case x < c3:
			j := g.pick()
			o.kind, o.key = opUpdate, m.key(m.ids[j])
			m.userBytes -= m.recordBytes(o.key, m.ver[j])
			m.ver[j]++
			m.userBytes += m.recordBytes(o.key, m.ver[j])
			o.val = valueSeed(o.key, m.ver[j])
		case x < c4:
			o.kind, o.key = opInsert, m.key(m.next)
			m.ids, m.ver = append(m.ids, m.next), append(m.ver, 0)
			m.next++
			m.userBytes += m.recordBytes(o.key, 0)
			o.val = valueSeed(o.key, 0)
		default:
			j := g.r.intn(len(m.ids))
			o.kind, o.key = opDelete, m.key(m.ids[j])
			m.userBytes -= m.recordBytes(o.key, m.ver[j])
			m.dead[m.deadN%deadSample] = m.ids[j]
			m.deadN++
			last := len(m.ids) - 1
			m.ids[j], m.ver[j] = m.ids[last], m.ver[last]
			m.ids, m.ver = m.ids[:last], m.ver[:last]
		}
		if m.varLen {
			g.fillVar(o)
		}
	}
}

// fillVar materialises a var op's key (and the value it writes) in the
// arena; for a Get it records the expected length and end words instead.
func (g *generator) fillVar(o *op) {
	o.koff = uint32(len(g.arena))
	g.arena = appendVarKey(g.arena, o.key)
	o.klen = uint8(len(g.arena) - int(o.koff))
	seed := o.val
	switch o.kind {
	case opGet:
		n := varValLen(seed)
		o.vlen, o.val, o.last = uint16(n), streamU64(seed, 0), streamU64(seed, n-8)
	case opInsert, opUpdate:
		n := varValLen(seed)
		o.voff, o.vlen = uint32(len(g.arena)), uint16(n)
		g.arena = appendStream(g.arena, seed, n)
	}
}
