package pmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"dash/internal/obs"
)

// VarLog is a crash-consistent, bump-allocated log of variable-length
// key/value blobs — the out-of-bucket record store behind the engine's
// fixed bucket layout (§4.1 of the paper notes longer keys are handled by
// storing pointers to records kept outside the bucket; the one-byte
// fingerprint still filters almost every misprobe before the pointer is
// dereferenced).
//
// # Layout
//
// The log is a chain of fixed-size chunks carved from the pool by the
// caller-supplied allocator, newest chunk first, rooted at a single
// caller-owned pointer word (headAddr). Each chunk is one header cacheline
// followed by blob storage:
//
//	word 0: next chunk address (0 terminates the chain)
//	word 1: chunk size in bytes (header included)
//	word 2: bump frontier — absolute address of the first free byte,
//	        persisted before every blob it covers is handed out, so a
//	        crash can at worst leak a blob that was never published, never
//	        hand the same bytes out twice
//
// A blob is 16-aligned and self-describing:
//
//	word 0: key length (bits 0..15) | value length (bits 16..31)
//	        | capacity/16 (bits 32..47) — capacity is the blob's full
//	        footprint including this header, which is what lets a log walk
//	        stride over blobs whose content lengths shrank on reuse
//	then:   key bytes, value bytes, padding to 16
//
// # Crash protocol
//
// A blob has no commit word: the caller's slot store that names it is its
// commit. Append writes header and bytes, then flushes and fences them, all
// before it returns the address any slot can be pointed at, so a slot never
// names a blob whose bytes are not durable. At any crash a blob is therefore
// referenced (kept) or not (the crash fell before its slot published, or
// after the slot moved on to another blob — the recovery sweep reclaims it
// once the caller reports which blobs its slots still reference).
//
// # Reuse
//
// Free pushes a blob onto a DRAM free list keyed by capacity; nothing is
// written to PM — an unreferenced blob is already dead at crash granularity.
// The caller frees a blob only after the slot store that stopped naming it
// has persisted, and epoch-defers the Free of a blob that lock-free readers
// may still be dereferencing (the only objects the engine retires through
// its epoch manager). A reused span is then named by no slot on media
// until the new blob's own slot publishes, after Append's persist: whatever
// mix of old and new bytes a crash leaves in it is unreferenced, and the
// header's capacity, equal on both sides of the reuse, keeps the walk's
// stride.
type VarLog struct {
	pool     *Pool
	headAddr Addr // pool address of the head-chunk pointer word
	chunkSz  uint64
	alloc    func(size uint64) (Addr, error)

	// The allocator's runtime state is DRAM, under mu: cur is the chunk
	// blobs are carved from — the chain's head, 0 until the first Append —
	// and bump and end its first free byte and its limit. PM only takes the
	// frontier's stores (allocBlob). free maps blob capacity → reusable blob
	// addresses. Exact-capacity reuse only: the header's capacity field must
	// keep describing the span so a post-crash log walk can stride over it.
	// chunks lists every chunk of the chain by address, for Holds.
	mu             sync.Mutex
	cur, bump, end uint64
	free           map[uint64][]Addr
	chunks         []Addr

	// DRAM stats; rebuilt by RecoverChunks and the sweep.
	chunkBytes atomic.Uint64 // pool bytes held by chunks
	liveBytes  atomic.Uint64 // capacity of committed, not-freed blobs
	liveBlobs  atomic.Int64
	freeBytes  atomic.Uint64 // capacity sitting in the free list

	// FreeHits/FreeMisses, when non-nil, meter blob allocations served from
	// the DRAM free list vs. fresh bump allocations (chunk frontier or
	// grow). Optional observability: set them before first use (obs.Counter
	// methods are nil-safe, so unset meters cost one predicted branch).
	FreeHits, FreeMisses *obs.Counter

	// Sweep bounds captured by RecoverChunks: the head chunk and its bump
	// frontier as of Open. A LogSweep walks only blobs that existed then;
	// everything appended afterwards (above the frontier, or in chunks
	// prepended since) is managed by the runtime Free/reuse paths alone.
	sweepHead  Addr
	sweepLimit uint64
}

const (
	// VarChunkSize is the default chunk size new logs allocate in.
	VarChunkSize = 256 << 10

	// BlobHeaderSize is the fixed per-blob header footprint: one word.
	BlobHeaderSize = 8

	// MaxVarKeyLen and MaxVarValueLen bound one blob's content. The bound
	// keeps every blob far below one chunk (an Append never cascades into
	// multiple chunk allocations mid-operation) and bounds the worst-case
	// PM read a single fingerprint-matched dereference can charge — split
	// migration and sweeps never touch blob bytes, so resize cost stays
	// independent of record size.
	MaxVarKeyLen   = 1 << 10
	MaxVarValueLen = 4 << 10

	blobAlign       = 16
	maxBlobCap      = 0xFFFF * blobAlign // the header's 16-bit capacity field
	chunkHeaderSize = CachelineSize
	chunkOffNext    = 0
	chunkOffSize    = 8
	chunkOffBump    = 16
)

// ErrBlobTooLarge is returned by Append when a record exceeds the log's
// per-blob bounds.
var ErrBlobTooLarge = errors.New("pmem: blob exceeds varlog size bounds")

// NewVarLog attaches a log to the pointer word at headAddr (zero for an
// empty log; Create-time callers persist that zero themselves). alloc hands
// out chunk-sized pool blocks; chunkSize 0 selects VarChunkSize, and a
// smaller size must still hold the chunk header plus the largest blob the
// caller appends. Call RecoverChunks before use when headAddr may name
// existing chunks, and sweep them (SweepStart) before trusting the free list.
func NewVarLog(pool *Pool, headAddr Addr, chunkSize uint64, alloc func(size uint64) (Addr, error)) *VarLog {
	if chunkSize == 0 {
		chunkSize = VarChunkSize
	}
	return &VarLog{
		pool:     pool,
		headAddr: headAddr,
		chunkSz:  chunkSize,
		alloc:    alloc,
		free:     make(map[uint64][]Addr),
	}
}

func packBlobHeader(klen, vlen int, capBytes uint64) uint64 {
	return uint64(klen) | uint64(vlen)<<16 | (capBytes/blobAlign)<<32
}

func blobHeaderLens(h uint64) (klen, vlen int) {
	return int(h & 0xFFFF), int(h >> 16 & 0xFFFF)
}

func blobHeaderCap(h uint64) uint64 { return ((h >> 32) & 0xFFFF) * blobAlign }

// blobCap returns the 16-aligned footprint of a blob with the given content.
func blobCap(klen, vlen int) uint64 {
	return (BlobHeaderSize + uint64(klen) + uint64(vlen) + blobAlign - 1) &^ (blobAlign - 1)
}

// Append allocates a blob, writes header and content and persists them: on
// return the blob is durable, and a slot store naming it commits it. Until
// then a crash leaves it unreferenced, and so reclaimable. Concurrent
// Appends are safe.
func (l *VarLog) Append(key, value []byte) (Addr, error) {
	klen, vlen := len(key), len(value)
	if klen == 0 || klen > MaxVarKeyLen || vlen > MaxVarValueLen {
		return Null, ErrBlobTooLarge
	}
	capBytes := blobCap(klen, vlen)
	a, err := l.allocBlob(capBytes)
	if err != nil {
		return Null, err
	}
	p := l.pool
	p.QuietStoreU64(a, packBlobHeader(klen, vlen, capBytes))
	p.QuietStoreBytes(a.Add(BlobHeaderSize), key)
	p.QuietStoreBytes(a.Add(BlobHeaderSize+uint64(klen)), value)
	// One charge for the whole blob, the run of lines the persist writes
	// back; then make it durable.
	n := BlobHeaderSize + uint64(klen) + uint64(vlen)
	p.TouchWrite(a, n)
	p.Persist(a, n)
	return a, nil
}

// Commit counts an appended blob as live space, before the caller publishes
// its address; the content must never change again. It writes no PM: the
// caller's slot store is the blob's commit point.
func (l *VarLog) Commit(a Addr) {
	capBytes := blobHeaderCap(l.pool.QuietLoadU64(a))
	l.liveBytes.Add(capBytes)
	l.liveBlobs.Add(1)
}

// Free returns a blob's span to the DRAM free list. No PM is written: an
// unreferenced blob is already reclaimable at crash granularity. The caller
// must guarantee no reader can still dereference the blob (epoch-defer the
// call when lock-free readers are in play).
func (l *VarLog) Free(a Addr) {
	capBytes := blobHeaderCap(l.pool.QuietLoadU64(a))
	l.mu.Lock()
	l.free[capBytes] = append(l.free[capBytes], a)
	l.mu.Unlock()
	l.liveBytes.Add(^(capBytes - 1))
	l.liveBlobs.Add(-1)
	l.freeBytes.Add(capBytes)
}

// allocBlob hands out a 16-aligned span: free list first (exact capacity
// class), then the current chunk's bump frontier, growing the chain when
// the chunk is full. The bump is a DRAM counter; its PM word is stored under
// mu, so the stores land in the order of their values, and persisted after
// the unlock but before the span is returned: a flush only ever copies the
// latest (largest) value, so the persisted frontier never goes backwards and
// covers every span ever handed out.
func (l *VarLog) allocBlob(capBytes uint64) (Addr, error) {
	l.mu.Lock()
	if spans := l.free[capBytes]; len(spans) > 0 {
		a := spans[len(spans)-1]
		l.free[capBytes] = spans[:len(spans)-1]
		l.mu.Unlock()
		l.freeBytes.Add(^(capBytes - 1))
		l.FreeHits.Inc()
		return a, nil
	}
	if l.bump+capBytes > l.end {
		if err := l.grow(); err != nil {
			l.mu.Unlock()
			return Null, err
		}
	}
	a := Addr(l.bump)
	l.bump += capBytes
	ba := Addr(l.cur).Add(chunkOffBump)
	l.pool.StoreU64(ba, l.bump)
	l.mu.Unlock()
	l.pool.Persist(ba, 8)
	l.FreeMisses.Inc()
	return a, nil
}

// grow links a fresh chunk at the head of the chain and makes it the one
// blobs are carved from. The caller holds mu.
func (l *VarLog) grow() error {
	chunk, err := l.alloc(l.chunkSz)
	if err != nil {
		return err
	}
	p := l.pool
	p.StoreU64(chunk.Add(chunkOffNext), l.cur)
	p.StoreU64(chunk.Add(chunkOffSize), l.chunkSz)
	p.StoreU64(chunk.Add(chunkOffBump), uint64(chunk)+chunkHeaderSize)
	p.Persist(chunk, chunkHeaderSize)
	// Publishing the chunk is the head-pointer flip; a crash before it
	// leaks the block, exactly like every other unpublished allocation.
	p.StoreU64(l.headAddr, uint64(chunk))
	p.Persist(l.headAddr, 8)
	l.cur, l.bump, l.end = uint64(chunk), uint64(chunk)+chunkHeaderSize, uint64(chunk)+l.chunkSz
	l.addChunk(chunk)
	l.chunkBytes.Add(l.chunkSz)
	return nil
}

// addChunk inserts a chunk into the address-ordered list Holds searches.
// The caller holds mu.
func (l *VarLog) addChunk(chunk Addr) {
	i, _ := slices.BinarySearch(l.chunks, chunk)
	l.chunks = slices.Insert(l.chunks, i, chunk)
}

// Holds reports whether a names a blob the log holds: an address inside a
// chunk of the chain, past its header and below its frontier, whose header
// gives a non-empty key and lengths that end below that frontier too. Every
// slot the table commits names such a blob (Append persists blob and frontier
// before it returns the address), so a slot that names anything else is
// corrupt: recovery asks before it dereferences a slot's blob, and Verify
// before it reads one. The loads are quiet.
func (l *VarLog) Holds(a Addr) bool {
	l.mu.Lock()
	i, _ := slices.BinarySearch(l.chunks, a+1) // chunks[i-1] is the last at or below a
	var chunk Addr
	if i > 0 {
		chunk = l.chunks[i-1]
	}
	l.mu.Unlock()
	if i == 0 || uint64(a) < uint64(chunk)+chunkHeaderSize {
		return false
	}
	p := l.pool
	frontier := p.QuietLoadU64(chunk.Add(chunkOffBump))
	if uint64(a)+BlobHeaderSize > frontier {
		return false
	}
	klen, vlen := blobHeaderLens(p.QuietLoadU64(a))
	return klen > 0 && uint64(a)+BlobHeaderSize+uint64(klen)+uint64(vlen) <= frontier
}

// Lens returns the blob's key and value lengths (quiet: the header shares
// the line the caller's dereference already charged).
func (l *VarLog) Lens(a Addr) (klen, vlen int) {
	return blobHeaderLens(l.pool.QuietLoadU64(a))
}

// KeyEquals reports whether the blob's key bytes equal key, charging the one
// dereference a matching fingerprint and hash bought: header and key, or —
// withValue, for a caller that will extract the value on a match — the whole
// blob as one streaming read (header, key and value occupy consecutive
// lines), which is why the extractors (QuietAppendValue, QuietValueU64)
// charge nothing. On the rare non-match (a full-hash collision) withValue
// over-charges the value lines; the caller's filter makes that negligible
// against the line a split charge would double-count on every match. The
// charge counts from a clock read taken before the header load, which is
// the first host access to the blob and usually a miss; a length mismatch
// returns uncharged.
func (l *VarLog) KeyEquals(a Addr, key []byte, withValue bool) bool {
	p := l.pool
	now := p.entryClock()
	klen, vlen := blobHeaderLens(p.QuietLoadU64(a))
	if klen != len(key) {
		return false
	}
	n := BlobHeaderSize + uint64(klen)
	if withValue {
		n += uint64(vlen)
	}
	p.touchRead(a, n, now)
	return string(p.QuietBytes(a.Add(BlobHeaderSize), uint64(klen))) == string(key)
}

// QuietAppendValue appends the blob's value bytes to dst without
// accounting: the caller's probe charged the whole blob (KeyEquals
// withValue).
func (l *VarLog) QuietAppendValue(dst []byte, a Addr) []byte {
	p := l.pool
	klen, vlen := blobHeaderLens(p.QuietLoadU64(a))
	return append(dst, p.QuietBytes(a.Add(BlobHeaderSize+uint64(klen)), uint64(vlen))...)
}

// QuietValueU64 is the fixed-width view of a blob's value — the
// little-endian uint64 of its first 8 bytes, zero-padded when the value is
// shorter — without accounting, like QuietAppendValue.
func (l *VarLog) QuietValueU64(a Addr) uint64 {
	p := l.pool
	klen, vlen := blobHeaderLens(p.QuietLoadU64(a))
	n := uint64(vlen)
	if n > 8 {
		n = 8
	}
	var buf [8]byte
	copy(buf[:], p.QuietBytes(a.Add(BlobHeaderSize+uint64(klen)), n))
	return binary.LittleEndian.Uint64(buf[:])
}

// KeyBytes returns a read view of the blob's key, charging its lines. The
// bytes are immutable until the blob is freed, so the view is good for as
// long as the caller keeps the blob from reclamation.
func (l *VarLog) KeyBytes(a Addr) []byte {
	p := l.pool
	klen, _ := blobHeaderLens(p.QuietLoadU64(a))
	p.TouchRead(a.Add(BlobHeaderSize), uint64(klen))
	return p.QuietBytes(a.Add(BlobHeaderSize), uint64(klen))
}

// RecoverChunks rebuilds the log's chunk-level DRAM state after Open — the
// O(#chunks) part of recovery that must run before any Append: it resets the
// free list and space accounting, validates every chunk header, re-derives
// chunkBytes, points the allocator at the head chunk, and snapshots the
// sweep bounds (head chunk + its bump frontier) a later LogSweep classifies
// blobs within. Blob classification itself is deferred to the sweep, so the
// restart critical path never walks blob storage.
func (l *VarLog) RecoverChunks() error {
	p := l.pool
	l.mu.Lock()
	defer l.mu.Unlock()
	l.free = make(map[uint64][]Addr)
	l.chunks = nil
	l.chunkBytes.Store(0)
	l.liveBytes.Store(0)
	l.liveBlobs.Store(0)
	l.freeBytes.Store(0)

	head := Addr(p.LoadU64(l.headAddr))
	l.cur, l.bump, l.end = uint64(head), 0, 0
	l.sweepHead, l.sweepLimit = head, 0
	// Every chunk must lie in the pool and the chain's chunks must fit in it
	// together, which bounds the walk on a chain whose next words loop.
	from, total := l.headAddr, uint64(0)
	for chunk := head; !chunk.IsNull(); {
		if uint64(chunk)%CachelineSize != 0 || uint64(chunk)+chunkHeaderSize > p.size {
			return fmt.Errorf("pmem: varlog chunk pointer %#x (word %#x) names no chunk of the pool", chunk, from)
		}
		size := p.LoadU64(chunk.Add(chunkOffSize))
		bump := p.LoadU64(chunk.Add(chunkOffBump))
		total += size
		if size < chunkHeaderSize || size > p.size-uint64(chunk) || total > p.size || bump < uint64(chunk)+chunkHeaderSize || bump > uint64(chunk)+size {
			return fmt.Errorf("pmem: varlog chunk %#x (word %#x) corrupt (size %d bump %#x)", chunk, from, size, bump)
		}
		if chunk == head {
			l.sweepLimit, l.bump, l.end = bump, bump, uint64(chunk)+size
		}
		l.addChunk(chunk)
		l.chunkBytes.Add(size)
		from = chunk.Add(chunkOffNext)
		chunk = Addr(p.LoadU64(from))
	}
	return nil
}

// LogSweep is a resumable walk over the blobs that existed when
// RecoverChunks ran, classifying each exactly once: blobs the caller's
// segments referenced at their recovery stay live (their space is accounted
// as the baseline runtime Frees and Commits have been applying deltas to);
// every other blob — one whose slot never published, or no longer names it —
// is reclaimed onto the free list.
//
// A blob whose header never reached media (capacity 0, or striding past the
// frontier: the crash fell between the frontier's persist and the blob's)
// is a hole of unknown length, and blobs behind it may be referenced — a
// concurrent Append that finished first, or one made since Open. No slot
// names a byte between the hole and the next referenced blob, so the sweep
// stores and persists one filler header spanning that gap and free-lists it
// like any dead blob: every later walk strides over it. It is the only PM
// the sweep writes, and a re-run writes the same filler.
//
// The sweep is safe against concurrent foreground traffic without locks:
// it never visits spans appended after Open (bounded by the snapshot
// frontier), and a pre-existing span can only be concurrently rewritten if
// it was freed since Open — which requires it to have been referenced at
// its segment's recovery, so the referenced check skips it without touching
// its free-list state; a filler covers only bytes nothing references or
// has free-listed. Word reads are atomic, so a racing reuse's header stores
// (same capacity by the exact-capacity reuse rule) never tear the stride.
type LogSweep struct {
	l     *VarLog
	chunk Addr   // current chunk; Null once the walk is exhausted
	pos   Addr   // next blob address within chunk
	limit uint64 // walk limit (absolute address) within current chunk
}

// SweepStart begins a sweep over the blobs captured by the last
// RecoverChunks. The caller must guarantee the referenced sets it will pass
// to Step are complete before stepping (every segment's references
// collected), and must not run two sweeps concurrently.
func (l *VarLog) SweepStart() *LogSweep {
	s := &LogSweep{l: l, chunk: l.sweepHead, limit: l.sweepLimit}
	if !s.chunk.IsNull() {
		s.pos = s.chunk.Add(chunkHeaderSize)
	}
	return s
}

// Step classifies up to maxBlobs blobs and reports whether the sweep is
// complete and how many blobs it free-listed. Call under an epoch guard when
// lock-free readers are in play, and yield between steps: each step's PM
// cost is bounded, so the sweep never blocks foreground operations.
func (s *LogSweep) Step(maxBlobs int, referenced map[Addr]struct{}) (done bool, freed int) {
	l, p := s.l, s.l.pool
	for n := 0; n < maxBlobs; {
		if s.chunk.IsNull() {
			return true, freed
		}
		if uint64(s.pos) >= s.limit {
			s.nextChunk()
			continue
		}
		a := s.pos
		capBytes := blobHeaderCap(p.QuietLoadU64(a))
		if capBytes == 0 || uint64(a)+capBytes > s.limit {
			capBytes = s.gap(a, referenced)
			p.StoreU64(a, packBlobHeader(0, 0, capBytes))
			p.Persist(a, BlobHeaderSize)
		} else {
			// One streaming charge for the header line of this stride.
			p.TouchRead(a, BlobHeaderSize)
		}
		if _, ref := referenced[a]; ref {
			l.liveBytes.Add(capBytes)
			l.liveBlobs.Add(1)
		} else {
			l.mu.Lock()
			l.free[capBytes] = append(l.free[capBytes], a)
			l.mu.Unlock()
			l.freeBytes.Add(capBytes)
			freed++
		}
		s.pos = a.Add(capBytes)
		n++
	}
	return s.chunk.IsNull(), freed
}

// gap returns the length of the filler for a hole at a: up to the lowest
// referenced blob past a in the chunk, or else the walk limit, and no longer
// than a header's capacity field can say (a longer gap takes more fillers).
func (s *LogSweep) gap(a Addr, referenced map[Addr]struct{}) uint64 {
	end := s.limit
	for r := range referenced {
		if r > a && uint64(r) < end {
			end = uint64(r)
		}
	}
	return min(end-uint64(a), maxBlobCap)
}

// nextChunk advances the sweep to the following chunk in the chain; chunks
// prepended since Open are never reached (the walk starts at the Open-time
// head), and non-head chunks' frontiers are frozen, so the limit read here
// is stable.
func (s *LogSweep) nextChunk() {
	p := s.l.pool
	s.chunk = Addr(p.QuietLoadU64(s.chunk.Add(chunkOffNext)))
	if s.chunk.IsNull() {
		return
	}
	s.pos = s.chunk.Add(chunkHeaderSize)
	s.limit = p.QuietLoadU64(s.chunk.Add(chunkOffBump))
}

// Verify checks a quiescent log with quiet loads: the PM head names the chunk
// blobs are carved from, at the DRAM frontier; and given referenced (nil
// skips it), the blobs the caller's slots hold: each is a blob the chunk walk
// reaches and is off the free list, and every blob the walk reaches is
// referenced or free.
func (l *VarLog) Verify(referenced map[Addr]struct{}) error {
	p, free := l.pool, l.FreeSpans()
	l.mu.Lock()
	defer l.mu.Unlock()
	var errs []error
	if head := p.QuietLoadU64(l.headAddr); head != l.cur {
		errs = append(errs, fmt.Errorf("pmem: varlog carves from chunk %#x, PM head is %#x", l.cur, head))
	} else if bump := Addr(head).Add(chunkOffBump); head != 0 && p.QuietLoadU64(bump) != l.bump {
		errs = append(errs, fmt.Errorf("pmem: varlog frontier %#x, PM frontier %#x", l.bump, p.QuietLoadU64(bump)))
	}
	if referenced == nil {
		return errors.Join(errs...)
	}
	walked := make(map[Addr]bool)
	for chunk := Addr(l.cur); !chunk.IsNull(); chunk = Addr(p.QuietLoadU64(chunk.Add(chunkOffNext))) {
		bump := p.QuietLoadU64(chunk.Add(chunkOffBump))
		for a := chunk.Add(chunkHeaderSize); uint64(a) < bump; {
			capBytes := blobHeaderCap(p.QuietLoadU64(a))
			if capBytes == 0 || uint64(a)+capBytes > bump {
				errs = append(errs, fmt.Errorf("pmem: varlog chunk %#x: the walk breaks at %#x (header %#x)", chunk, a, p.QuietLoadU64(a)))
				break
			}
			walked[a] = true
			if _, ref := referenced[a]; !ref && !free[a] {
				errs = append(errs, fmt.Errorf("pmem: varlog blob %#x is neither referenced nor free", a))
			}
			a = a.Add(capBytes)
		}
	}
	for a := range referenced {
		if !walked[a] {
			errs = append(errs, fmt.Errorf("pmem: varlog blob %#x is referenced, but not a blob the chunk walk reaches", a))
		} else if free[a] {
			errs = append(errs, fmt.Errorf("pmem: varlog blob %#x is referenced, but free", a))
		}
	}
	return errors.Join(errs...)
}

// FreeSpans snapshots the set of blob addresses parked on the DRAM free
// list.
func (l *VarLog) FreeSpans() map[Addr]bool {
	out := make(map[Addr]bool)
	l.mu.Lock()
	for _, spans := range l.free {
		for _, a := range spans {
			out[a] = true
		}
	}
	l.mu.Unlock()
	return out
}

// VarLogStats is a point-in-time view of the log's space accounting.
type VarLogStats struct {
	// ChunkBytes is the pool space held by the chunk chain.
	ChunkBytes uint64
	// LiveBytes is the capacity of committed, unfreed blobs; LiveBlobs
	// counts them.
	LiveBytes uint64
	LiveBlobs int64
	// FreeBytes is the capacity parked on the DRAM free list.
	FreeBytes uint64
}

// Stats snapshots the log's space accounting (per-counter consistent).
func (l *VarLog) Stats() VarLogStats {
	return VarLogStats{
		ChunkBytes: l.chunkBytes.Load(),
		LiveBytes:  l.liveBytes.Load(),
		LiveBlobs:  l.liveBlobs.Load(),
		FreeBytes:  l.freeBytes.Load(),
	}
}
