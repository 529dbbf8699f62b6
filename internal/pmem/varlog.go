package pmem

import (
	"encoding/binary"
	"errors"
	"fmt"
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
//	word 1: commit word — blobCommitMagic once the blob's bytes are
//	        durable, anything else means the blob never finished
//	then:   key bytes, value bytes, padding to 16
//
// # Crash protocol
//
// Append writes header (commit word cleared) and bytes, then flushes and
// fences them; Commit sets the commit word with its own persist. The caller
// publishes the blob by pointing a table slot at it only after Commit, so
// at any crash a blob is in exactly one of three states: unwritten or
// uncommitted (reclaimed by Recover), committed but unreferenced (the crash
// fell between commit and slot publish, or between a copy-on-write slot
// flip and nothing — Recover reclaims it once the caller reports which
// blobs its slots still reference), or committed and referenced (kept).
//
// # Reuse
//
// Free pushes a blob onto a DRAM free list keyed by capacity; nothing is
// written to PM — an unreferenced blob is already dead at crash
// granularity, whatever its commit word says. The caller is responsible for
// epoch-deferring Free of a blob that lock-free readers may still be
// dereferencing (the same discipline the engine applies to retired
// directory blocks). Reusing a span whose media image still says
// "committed" is safe because Append clears the commit word before the
// payload persist: the new content can only ever surface as uncommitted.
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
	mu             sync.Mutex
	cur, bump, end uint64
	free           map[uint64][]Addr

	// DRAM stats; rebuilt by Recover.
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

	// BlobHeaderSize is the fixed per-blob header footprint.
	BlobHeaderSize = 16

	// MaxVarKeyLen and MaxVarValueLen bound one blob's content. The bound
	// keeps every blob far below one chunk (an Append never cascades into
	// multiple chunk allocations mid-operation) and bounds the worst-case
	// PM read a single fingerprint-matched dereference can charge — split
	// migration and sweeps never touch blob bytes, so resize cost stays
	// independent of record size.
	MaxVarKeyLen   = 1 << 10
	MaxVarValueLen = 4 << 10

	blobAlign       = 16
	chunkHeaderSize = CachelineSize
	chunkOffNext    = 0
	chunkOffSize    = 8
	chunkOffBump    = 16

	blobCommitMagic = 0xB10BC0117EDBEEF1
)

// ErrBlobTooLarge is returned by Append when a record exceeds the log's
// per-blob bounds.
var ErrBlobTooLarge = errors.New("pmem: blob exceeds varlog size bounds")

// NewVarLog attaches a log to the pointer word at headAddr (zero for an
// empty log; Create-time callers persist that zero themselves). alloc hands
// out chunk-sized pool blocks; chunkSize 0 selects VarChunkSize, and a
// smaller size must still hold the chunk header plus the largest blob the
// caller appends. Call Recover before use when headAddr may name existing
// chunks.
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

// Append allocates a blob, writes header and content and persists them with
// the commit word cleared. The blob is not live until Commit; a crash
// before Commit leaves it reclaimable. Concurrent Appends are safe.
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
	// Clear the commit word before anything else lands: if this span is a
	// reused blob whose media image says "committed", the clear must be in
	// the same flush set as the new content, so the torn states a crash can
	// expose are all uncommitted.
	p.QuietStoreU64(a.Add(8), 0)
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

// Commit marks the blob durable-and-complete. After Commit the caller may
// publish the blob's address; the content must never change again.
func (l *VarLog) Commit(a Addr) {
	p := l.pool
	p.StoreU64(a.Add(8), blobCommitMagic)
	p.Persist(a.Add(8), 8)
	capBytes := blobHeaderCap(p.QuietLoadU64(a))
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
	l.chunkBytes.Add(l.chunkSz)
	return nil
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
// against the line a split charge would double-count on every match.
func (l *VarLog) KeyEquals(a Addr, key []byte, withValue bool) bool {
	p := l.pool
	klen, vlen := blobHeaderLens(p.QuietLoadU64(a))
	if klen != len(key) {
		return false
	}
	n := BlobHeaderSize + uint64(klen)
	if withValue {
		n += uint64(vlen)
	}
	p.TouchRead(a, n)
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

// KeyBytes returns a copy of the blob's key (charged).
func (l *VarLog) KeyBytes(a Addr) []byte {
	p := l.pool
	klen, _ := blobHeaderLens(p.QuietLoadU64(a))
	return p.ReadBytes(a.Add(BlobHeaderSize), uint64(klen))
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
	l.chunkBytes.Store(0)
	l.liveBytes.Store(0)
	l.liveBlobs.Store(0)
	l.freeBytes.Store(0)

	head := Addr(p.LoadU64(l.headAddr))
	l.cur, l.bump, l.end = uint64(head), 0, 0
	l.sweepHead, l.sweepLimit = head, 0
	for chunk := head; !chunk.IsNull(); {
		size := p.LoadU64(chunk.Add(chunkOffSize))
		bump := p.LoadU64(chunk.Add(chunkOffBump))
		if size < chunkHeaderSize || bump < uint64(chunk)+chunkHeaderSize || bump > uint64(chunk)+size {
			return fmt.Errorf("pmem: varlog chunk %#x corrupt (size %d bump %#x)", chunk, size, bump)
		}
		if chunk == head {
			l.sweepLimit, l.bump, l.end = bump, bump, uint64(chunk)+size
		}
		l.chunkBytes.Add(size)
		chunk = Addr(p.LoadU64(chunk.Add(chunkOffNext)))
	}
	return nil
}

// LogSweep is a resumable walk over the blobs that existed when
// RecoverChunks ran, classifying each exactly once: blobs the caller's
// segments referenced at their recovery stay live (their space is accounted
// as the baseline runtime Frees and Commits have been applying deltas to);
// everything else — blobs whose commit never landed, and committed blobs no
// slot references — is reclaimed onto the free list. A blob whose header
// never reached media (capacity 0, or striding past the frontier) ends its
// chunk's walk; the bytes behind it are leaked, never handed out twice.
//
// The sweep is safe against concurrent foreground traffic without locks:
// it never visits spans appended after Open (bounded by the snapshot
// frontier), and a pre-existing span can only be concurrently rewritten if
// it was freed since Open — which requires it to have been referenced at
// its segment's recovery, so the referenced check skips it without touching
// its free-list state. Word reads are atomic, so a racing reuse's header
// stores (same capacity by the exact-capacity reuse rule) never tear the
// stride.
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
func (s *LogSweep) Step(maxBlobs int, referenced func(Addr) bool) (done bool, freed int) {
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
		h := p.QuietLoadU64(a)
		capBytes := blobHeaderCap(h)
		if capBytes == 0 || uint64(a)+capBytes > s.limit {
			// Header never persisted: leak the rest of this chunk.
			s.nextChunk()
			continue
		}
		// One streaming charge for the header+commit line of this stride.
		p.TouchRead(a, BlobHeaderSize)
		if referenced(a) {
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

// Recover is the synchronous composition RecoverChunks + a full sweep — the
// eager-recovery convenience for callers (and tests) with no concurrent
// traffic to stay out of the way of.
func (l *VarLog) Recover(referenced func(Addr) bool) error {
	if err := l.RecoverChunks(); err != nil {
		return err
	}
	s := l.SweepStart()
	for {
		if done, _ := s.Step(1024, referenced); done {
			return nil
		}
	}
}

// WalkBlobs calls fn for every blob currently reachable by a log walk (each
// chunk up to its live bump frontier), reporting its capacity and whether
// its commit word is set. Quiescent-state debug/test oracle: concurrent
// appends void the walk's meaning.
func (l *VarLog) WalkBlobs(fn func(a Addr, capBytes uint64, committed bool)) {
	p := l.pool
	for chunk := Addr(p.QuietLoadU64(l.headAddr)); !chunk.IsNull(); {
		bump := p.QuietLoadU64(chunk.Add(chunkOffBump))
		for a := chunk.Add(chunkHeaderSize); uint64(a) < bump; {
			h := p.QuietLoadU64(a)
			capBytes := blobHeaderCap(h)
			if capBytes == 0 || uint64(a)+capBytes > bump {
				break
			}
			fn(a, capBytes, p.QuietLoadU64(a.Add(8)) == blobCommitMagic)
			a = a.Add(capBytes)
		}
		chunk = Addr(p.QuietLoadU64(chunk.Add(chunkOffNext)))
	}
}

// Verify reports whether the allocator's DRAM state is what the PM image
// says: the head pointer names the chunk blobs are carved from, and that
// chunk's persisted frontier is the DRAM one. Quiescent-state check.
func (l *VarLog) Verify() error {
	p := l.pool
	l.mu.Lock()
	defer l.mu.Unlock()
	if head := p.QuietLoadU64(l.headAddr); head != l.cur {
		return fmt.Errorf("pmem: varlog carves from chunk %#x, PM head is %#x", l.cur, head)
	}
	if l.cur != 0 {
		if bump := p.QuietLoadU64(Addr(l.cur).Add(chunkOffBump)); bump != l.bump {
			return fmt.Errorf("pmem: varlog frontier %#x, PM frontier %#x", l.bump, bump)
		}
	}
	return nil
}

// FreeSpans snapshots the set of blob addresses parked on the DRAM free
// list. Quiescent-state debug/test oracle.
func (l *VarLog) FreeSpans() map[Addr]struct{} {
	out := make(map[Addr]struct{})
	l.mu.Lock()
	for _, spans := range l.free {
		for _, a := range spans {
			out[a] = struct{}{}
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
