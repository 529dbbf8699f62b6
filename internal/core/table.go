package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"dash/internal/epoch"
	"dash/internal/hashfn"
	"dash/internal/obs"
	"dash/internal/pmem"
)

// Table layer (§4.4–4.6): the public Insert/Get/Delete/Update API and the
// locking protocol tying the layers together. Segment splits are split.go,
// post-crash recovery lazyrec.go.
//
// Concurrency protocol:
//   - Every operation routes key → segment through the DRAM directory cache
//     (dircache.go), which a stale route repairs from too; the PM directory
//     is only stored to. An operation whose probe reads a blob enters an
//     epoch guard first (probeKey.pin), so a retired blob is never reused
//     under a reader still reading it; one that meets no blob — every
//     inline hit, every miss — enters none.
//   - Every probe, a reader's or a writer's, runs in the routed segment's
//     DRAM mirror (segfilter.go — the only probe there is). DRAM is the
//     runtime truth — routes, locks, claims, bitmaps, fingerprints, record
//     words, allocation frontiers — and PM the crash truth: an operation
//     stores to PM and never looks anything up there but a blob's bytes.
//   - Readers are optimistic and lock-free: scan the mirror buckets under
//     seqlock version validation, and before concluding "not found" check
//     that the mirrored claim covers the key and the route did not move. A
//     seqlock-stable positive hit needs no revalidation (see dircache.go).
//   - Writers lock only the key's two candidate buckets (plus stash /
//     displacement buckets, in a fixed deadlock-free order) — the lock is the
//     mirror bucket's version word, the one readers validate against — then
//     check that the locked segment's mirrored header claims the key
//     (lockOwner, §4.4): no PM read at all. They decide where the record goes
//     from the mirror, store to PM, persist, and store the same words to the
//     mirror before unlocking.
//   - Segment splits are per-segment and concurrent: a split holds the
//     segment's owner lock (on its DRAM descriptor) from its claim until
//     the publish is written through, so splits of distinct segments
//     proceed in parallel. Readers and writers never take it. The only
//     stop-the-world moment is the publish step: all bucket locks are
//     taken, the sibling's half is copied into a sibling nobody else can
//     reach, the fully-built sibling is persisted with one flush+fence, the
//     directory entries flip, the old segment's metadata
//     bumps, moved records are dropped from its mirror (DRAM only: PM keeps
//     each until an insert reuses its slot, and recovery drops them by
//     route), and the directory cache is written through — then everything
//     unlocks.
//   - Directory doubling (and the entry flips of a publish) serialize on the
//     narrow dirMu; nothing else does. Lock order is: bucket locks → dirMu,
//     buckets acquired in ascending index order (pairs sorted, displacement
//     via trylock). An unpublished sibling's buckets are never locked.

// Root block layout, at the first usable cacheline of the pool.
const (
	rootAddr = pmem.Addr(pmem.CachelineSize)

	rootOffMagic    = 0
	rootOffFormat   = 8
	rootOffSeed     = 16
	rootOffDir      = 24 // current directory block
	rootOffAllocNxt = 32 // bump-allocator frontier
	rootOffVarLog   = 40 // head of the variable-length record log's chunk chain
	rootOffClean    = 48 // cleanShutdownMagic after Close; 0 while the table is open
	rootOffCount    = 56 // record count persisted by a clean Close

	tableMagic = 0x44617368454831 // "DashEH1"
	// tableFormat 8: a segment is its header line and its records back to
	// back, 224 bytes per bucket (slotAddr). 7 = 256-byte buckets, records
	// between two paddings, a PM slot live iff its word 0 is non-zero and
	// inline key 0 stored as recZeroKeyWord (record.go); 6 = a bitmap in a
	// bucket's first 16 bytes, key 0 as itself, fingerprints and stash
	// counts recomputed at first touch; 5 = a split leaves its moved records
	// in the old segment's PM (segDrop), so every image needs recovery's
	// route filter; 4 = one-word blob header, no commit word; 3 =
	// clean-shutdown marker root; 2 = indirect (varlog) records.
	tableFormat = 8
	allocStart  = 256 // first allocatable offset; keeps blocks 256-aligned
	allocAlign  = 256

	// cleanShutdownMagic in the root's clean word certifies the image was
	// left by Close with no operation in flight: every segment reconciled,
	// the persisted count exact. Open consumes (clears) it immediately, so a
	// crash after reopening takes the crash path.
	cleanShutdownMagic = 0x436C65616E4F4B31 // "CleanOK1"
)

var (
	// ErrKeyExists is returned by Insert when the key is already present.
	ErrKeyExists = errors.New("core: key already exists")
	// ErrPoolFull is returned when the PM pool cannot fit a new allocation.
	ErrPoolFull = errors.New("core: pmem pool exhausted")
	// ErrNotATable is returned by Open when the pool holds no table image.
	ErrNotATable = errors.New("core: pool does not contain a dash table")
	// ErrSegmentOverflow reports the pathological case that a splitting
	// segment's keys all land on one side and overflow the new half.
	ErrSegmentOverflow = errors.New("core: segment overflow during split")
	// ErrRecordTooLarge is returned by the []byte-keyed mutators when a key
	// or value exceeds the record log's per-blob bounds
	// (pmem.MaxVarKeyLen / pmem.MaxVarValueLen) — rejected up front rather
	// than risking a log entry a chunk cannot hold.
	ErrRecordTooLarge = errors.New("core: record exceeds max blob size")
)

// Options configures Create.
type Options struct {
	// InitialDepth is the starting global depth (2^depth segments).
	// Defaults to 1.
	InitialDepth uint8
	// Seed seeds the hash function. Defaults to hashfn.DefaultSeed.
	Seed uint64
}

// Table is a Dash extendible hash table living in a pmem.Pool.
type Table struct {
	pool *pmem.Pool
	em   *epoch.Manager // this table's own: a reader stalled here pins no other table's reclamation
	seed uint64

	// vlog is the PM record log holding every variable-length (and every
	// non-inline uint64, recInlineKey) record's key/value blob; bucket slots reference
	// blobs by packed address (record.go). Freed blobs are epoch-deferred
	// so lock-free readers never dereference reused bytes.
	vlog *pmem.VarLog

	// cache is the DRAM-resident mirror of the PM directory (dircache.go),
	// the first stop of every operation's key → segment routing.
	cache dirCache

	// filters meters the per-segment DRAM filter mirrors (segfilter.go), the
	// cache's counterpart one layer down: reads probe buckets in DRAM and
	// touch PM only for blob payloads.
	filters segFilters

	// dirMu serializes directory mutation: doubling and the entry flips of
	// a split publish; a repair waits on it. Splits
	// themselves are per-segment (claimed on the segment's descriptor) and
	// run concurrently; they touch dirMu only for their short publish.
	dirMu sync.Mutex

	// The allocator, under freeMu: allocNext is the bump frontier (its PM
	// word only takes the stores, alloc), freeList the retired PM blocks
	// (old directories, rolled-back siblings) alloc reuses first.
	freeMu    sync.Mutex
	allocNext uint64
	freeList  []freeSpan

	count recordCount

	// lazy is the deferred-recovery side table built by Open (lazyrec.go):
	// non-nil while any segment still awaits its first-touch recovery or the
	// background record-log sweep is unfinished. Nil on a created table and
	// after recovery completes, restoring the ungated hot path.
	lazy atomic.Pointer[lazyRecovery]

	// Observability (obs.go): reg names every meter, fr is the flight
	// recorder, met the table-level histogram/phase handles. Built by
	// initObs before any operation runs.
	reg *obs.Registry
	fr  *obs.Flight
	met meters
}

// recordCount is the table's live-record count: a goroutine-sharded
// obs.Counter taking two's-complement adds, so the inserts and deletes of
// different goroutines write different cachelines, and Load sums the
// shards. It is exact at quiescence; read while records come and go, it is
// approximate, as Stats is.
type recordCount struct{ c obs.Counter }

// Add adds n (negative for deletes) to the calling goroutine's shard.
func (rc *recordCount) Add(n int64) { rc.c.Add(uint64(n)) }

// Load is the count: the shards' sum, read as signed.
func (rc *recordCount) Load() int64 { return int64(rc.c.Total()) }

type freeSpan struct {
	addr pmem.Addr
	size uint64
}

// newTableState builds the DRAM side of a table over pool: what Create and
// Open share before either touches the image.
func newTableState(pool *pmem.Pool, seed uint64) *Table {
	t := &Table{pool: pool, em: epoch.NewManager(), seed: seed}
	t.vlog = pmem.NewVarLog(pool, rootAddr.Add(rootOffVarLog), 0, t.alloc)
	t.initObs()
	return t
}

// Create formats pool with an empty table and returns it.
func Create(pool *pmem.Pool, opt Options) (*Table, error) {
	if opt.Seed == 0 {
		opt.Seed = hashfn.DefaultSeed
	}
	if opt.InitialDepth == 0 {
		opt.InitialDepth = 1
	}
	p := pool
	t := newTableState(p, opt.Seed)

	p.StoreU64(rootAddr.Add(rootOffMagic), 0) // not a table until fully formatted
	p.StoreU64(rootAddr.Add(rootOffFormat), tableFormat)
	p.StoreU64(rootAddr.Add(rootOffSeed), opt.Seed)
	t.allocNext = allocStart
	p.StoreU64(rootAddr.Add(rootOffAllocNxt), allocStart)
	p.StoreU64(rootAddr.Add(rootOffVarLog), 0) // record log grows lazily
	p.StoreU64(rootAddr.Add(rootOffClean), 0)  // open (not cleanly shut down)
	p.StoreU64(rootAddr.Add(rootOffCount), 0)
	p.Persist(rootAddr, pmem.CachelineSize)

	nseg := 1 << opt.InitialDepth
	segs := make([]pmem.Addr, nseg)
	for i := range segs {
		seg, err := t.alloc(segmentSize)
		if err != nil {
			return nil, err
		}
		segInit(p, seg, opt.InitialDepth, uint64(i))
		segPersist(p, seg)
		segs[i] = seg
	}
	dir, err := t.alloc(dirSize(opt.InitialDepth))
	if err != nil {
		return nil, err
	}
	entry := func(i uint64) pmem.Addr { return segs[i] }
	dirInit(p, dir, opt.InitialDepth, entry)
	p.StoreU64(rootAddr.Add(rootOffDir), uint64(dir))
	// Magic last: its persist is the commit point of formatting.
	p.StoreU64(rootAddr.Add(rootOffMagic), tableMagic)
	p.Persist(rootAddr, pmem.CachelineSize)
	for i, d := range t.setView(dir, opt.InitialDepth, entry) {
		d.mir.Store(t.newMirror(opt.InitialDepth, uint64(i)))
	}
	return t, nil
}

// Open revives the table stored in pool with O(directory) work up front
// (§4.6 instant restart): one pass that reads and reconciles the directory,
// segment metadata fixes, and the view installed from the reconciled
// entries. Everything O(data) — mirror builds, the route filter,
// corrupt and duplicate deletes, count re-derivation — is deferred to each
// segment's first touch (lazyrec.go), and the record-log sweep runs as an
// incremental background pass. After a clean shutdown (Close persisted the
// root's clean marker) the duplicate and blob checks and the count
// derivation are skipped. Call RecoverAll to force the deferred work to
// complete synchronously.
func Open(pool *pmem.Pool) (*Table, error) {
	p := pool
	if p.LoadU64(rootAddr.Add(rootOffMagic)) != tableMagic {
		return nil, ErrNotATable
	}
	if f := p.LoadU64(rootAddr.Add(rootOffFormat)); f != tableFormat {
		return nil, fmt.Errorf("core: unsupported table format %d (want %d)", f, tableFormat)
	}
	t := newTableState(p, p.LoadU64(rootAddr.Add(rootOffSeed)))
	t.allocNext = p.LoadU64(rootAddr.Add(rootOffAllocNxt))
	if t.allocNext < allocStart || t.allocNext > p.Size() {
		return nil, fmt.Errorf("core: corrupt image: allocation frontier %#x outside the %d-byte pool", t.allocNext, p.Size())
	}
	clean := p.LoadU64(rootAddr.Add(rootOffClean)) == cleanShutdownMagic
	// Consume the marker before anything else: from here on the image can
	// diverge from the persisted count, so a crash must take the crash path.
	p.StoreU64(rootAddr.Add(rootOffClean), 0)
	p.Persist(rootAddr.Add(rootOffClean), 8)
	if err := t.recoverLazy(clean); err != nil {
		return nil, err
	}
	if lr := t.lazy.Load(); lr != nil && !disableBackgroundRecovery.Load() {
		go t.driveRecovery(lr)
	}
	return t, nil
}

// Count returns the number of live records. While lazy recovery is still in
// flight the exact global count needs every segment's contribution, so Count
// first completes recovery synchronously (cheap after a clean shutdown: the
// count itself came from the root, but the record-log sweep still runs).
func (t *Table) Count() int64 {
	if t.lazy.Load() != nil {
		t.RecoverAll()
	}
	return t.count.Load()
}

// GlobalDepth returns the directory's current global depth, read from the
// DRAM directory cache (exact: doublings swap the cached view before the
// split that triggered them publishes anything).
func (t *Table) GlobalDepth() uint8 {
	return t.cache.view.Load().depth
}

// Close shuts the table down cleanly: completes any in-flight lazy
// recovery, drains the epoch manager, and persists the record count plus the
// clean-shutdown marker so the next Open skips all per-segment work. The
// caller must be quiescent (no operation in flight); the pool remains usable
// and reopenable, and Close itself is idempotent. Mutating the table after
// Close voids the marker's guarantee — reopen instead.
func (t *Table) Close() {
	t.RecoverAll()
	t.em.Drain()
	p := t.pool
	p.StoreU64(rootAddr.Add(rootOffCount), uint64(t.count.Load()))
	p.StoreU64(rootAddr.Add(rootOffClean), cleanShutdownMagic)
	p.Persist(rootAddr, pmem.CachelineSize)
}

// alloc carves size bytes (256-aligned) out of the pool, reusing the first
// retired block that fits, whose tail, if any, stays on the free list. The
// bump frontier is a DRAM counter; its PM word is stored under freeMu, so the
// stores land in the order of their values, and persisted after the unlock
// but before the block is returned: a flush only ever copies the latest
// (largest) value, so the persisted frontier never goes backwards, and a
// crash can at worst leak a block that was never published, never hand out
// the same published block twice.
func (t *Table) alloc(size uint64) (pmem.Addr, error) {
	size = allocRound(size)
	t.freeMu.Lock()
	for i, s := range t.freeList {
		if s.size >= size {
			if s.size > size {
				t.freeList[i] = freeSpan{addr: s.addr.Add(size), size: s.size - size}
			} else {
				t.freeList = append(t.freeList[:i], t.freeList[i+1:]...)
			}
			t.freeMu.Unlock()
			return s.addr, nil
		}
	}
	a := t.allocNext
	if a+size > t.pool.Size() {
		t.freeMu.Unlock()
		return 0, ErrPoolFull
	}
	t.allocNext = a + size
	na := rootAddr.Add(rootOffAllocNxt)
	t.pool.StoreU64(na, t.allocNext)
	t.freeMu.Unlock()
	t.pool.Persist(na, 8)
	return pmem.Addr(a), nil
}

// freePush returns a block alloc handed out for a size-byte request; the
// span records what alloc really carved, so a request of the same size fits.
func (t *Table) freePush(a pmem.Addr, size uint64) {
	t.freeMu.Lock()
	t.freeList = append(t.freeList, freeSpan{addr: a, size: allocRound(size)})
	t.freeMu.Unlock()
}

func allocRound(size uint64) uint64 { return (size + allocAlign - 1) &^ (allocAlign - 1) }

// lockOwner is every writer's first step: route the key through the DRAM
// directory cache, take its pair locks in the routed segment, and check that
// this segment's mirrored header claims the key — no PM read, and under the
// locks sufficient (mirClaims has the argument). A failed claim means the
// route was stale: unlock, wait out the publish that moved it, retry. Returns
// with the pair locks held in the key's owning segment, as its descriptor and
// the mirror that holds the locks, answers the probe and takes the
// write-through; the cache only proposes candidates.
func (t *Table) lockOwner(parts hashfn.Parts, b, b2 int) (*segDesc, *segMirror) {
	for {
		d := t.cache.route(parts)
		mir := t.mirror(d)
		t.lockPair(mir, b, b2)
		if mirClaims(mir, parts) {
			t.cache.hits.Inc()
			return d, mir
		}
		unlockPair(mir, b, b2)
		t.cache.misses.Inc()
		t.cacheRepair(parts)
	}
}

// Insert adds key → value: InsertB of their little-endian encodings. It
// fails with ErrKeyExists if the key is present and ErrPoolFull if the pool
// cannot grow the table any further. Keys with bit 63 clear are stored
// inline (the fixed-record fast path); bit-63 keys cannot use the inline
// format (its discriminator bit), nor can recZeroKeyWord (the word 0 that
// stands for key 0), and they go through the record log as 8-byte blobs
// (recInlineKey).
func (t *Table) Insert(key, value uint64) error {
	var kb, vb [8]byte
	binary.LittleEndian.PutUint64(kb[:], key)
	binary.LittleEndian.PutUint64(vb[:], value)
	return t.InsertB(kb[:], vb[:])
}

// InsertB adds a variable-length record. Keys must be non-empty; keys and
// values past the log bounds fail with ErrRecordTooLarge. An 8-byte key is
// the same key as its little-endian uint64 (the two APIs are views of one
// keyspace), and an 8-byte-key/8-byte-value record whose key is inline as
// a uint64 (recInlineKey) is stored inline, taking the fixed-record fast
// path.
func (t *Table) InsertB(key, value []byte) error {
	if len(key) == 0 || len(key) > pmem.MaxVarKeyLen || len(value) > pmem.MaxVarValueLen {
		return ErrRecordTooLarge
	}
	pk := t.probeBytes(key)
	op := t.opBegin(&pk)
	var err error
	if len(key) == 8 && len(value) == 8 && recInlineKey(binary.LittleEndian.Uint64(key)) {
		err = t.insertKV(&pk, pmem.KV{
			Key:   recInlineWord(binary.LittleEndian.Uint64(key)),
			Value: binary.LittleEndian.Uint64(value),
		})
	} else {
		err = t.insertIndirect(&pk, key, value)
	}
	t.opEnd(op, &pk, obs.EvInsert, insOutcome(err))
	return err
}

// insertIndirect writes the blob and inserts the packed record; the slot
// store that publishes the record is the blob's commit. The blob is
// allocated before any lock is taken and survives split retries; it is
// returned to the log on any failure. A failed insert never published the
// record, so no reader can hold the blob and the free is immediate.
func (t *Table) insertIndirect(pk *probeKey, key, value []byte) error {
	blob, err := t.vlog.Append(key, value)
	if err != nil {
		return t.mapLogErr(err)
	}
	t.vlog.Commit(blob)
	kv := pmem.KV{Key: recPack(blob, len(key)), Value: pk.parts.Hash}
	if err := t.insertKV(pk, kv); err != nil {
		t.vlog.Free(blob)
		return err
	}
	return nil
}

func (t *Table) mapLogErr(err error) error {
	if errors.Is(err, pmem.ErrBlobTooLarge) {
		return ErrRecordTooLarge
	}
	if errors.Is(err, ErrPoolFull) {
		return ErrPoolFull
	}
	return err
}

// insertKV is the shared insert protocol: route, lock and claim-check
// (lockOwner), duplicate check by canonical key, representation-blind slot
// insert, or split-and-retry.
func (t *Table) insertKV(pk *probeKey, kv pmem.KV) error {
	parts := pk.parts
	b, b2 := homePair(parts)
	for {
		d, mir := t.lockOwner(parts, b, b2)
		seg := d.seg
		if _, _, found, _ := mirSegSearch(t.vlog, mir, pk, true); found {
			unlockPair(mir, b, b2)
			return ErrKeyExists
		}
		if t.segInsertLocked(mir, seg, parts, kv) {
			unlockPair(mir, b, b2)
			t.count.Add(1)
			return nil
		}
		unlockPair(mir, b, b2)
		if err := t.split(parts, d); err != nil {
			return err
		}
	}
}

// Get returns the value stored under key. Lock-free, and on the hot path
// free of PM metadata traffic: the route comes from the DRAM directory
// cache, the probe runs in the segment's DRAM mirror, and a found record
// under a stable bucket version is immediately valid (segments are never
// reclaimed, and a key's record is physically present only in segments that
// route to it — see dircache.go). A miss is trusted once the mirrored claim
// and the route vouch for it; a stale route waits out the publish that moved
// it and retries (searchOpt). Get probes with the key's little-endian
// encoding, as GetB does, but extracts the value as a word: for a record
// stored through the log the result is the little-endian uint64 of the
// value's first 8 bytes (zero-padded when shorter) — the fixed-width view of
// a variable value.
func (t *Table) Get(key uint64) (uint64, bool) {
	var kb [8]byte
	binary.LittleEndian.PutUint64(kb[:], key)
	pk := t.probeBytes(kb[:])
	op := t.opBegin(&pk)
	kv, found := t.searchOpt(&pk)
	var v uint64
	if found {
		v = recValueU64(t.vlog, kv)
	}
	t.opEnd(op, &pk, obs.EvGet, readPath(found))
	return v, found
}

// GetB returns a copy of the value stored under a variable-length key (an
// 8-byte value in little-endian order when the record is stored inline).
func (t *Table) GetB(key []byte) ([]byte, bool) {
	return t.GetBAppend(nil, key)
}

// GetBAppend is GetB appending the value to dst, for callers reusing
// buffers on hot paths.
func (t *Table) GetBAppend(dst, key []byte) ([]byte, bool) {
	pk := t.probeBytes(key)
	op := t.opBegin(&pk)
	kv, found := t.searchOpt(&pk)
	if found {
		dst = recAppendValue(t.vlog, dst, kv)
	}
	t.opEnd(op, &pk, obs.EvGet, readPath(found))
	return dst, found
}

// searchOpt is the lock-free read protocol — the only one: every probe runs
// against the routed segment's DRAM filter mirror (segfilter.go), which
// Table.mirror guarantees exists.
//
//   - a stable mirror hit is immediately valid: a key's record is physically
//     present only in segments the directory routes it to, and every
//     mutation of a bucket, PM and mirror, happens with the bucket's version
//     odd, so a scan under a stable even version saw a state PM also held.
//     An indirect hit's blob was charged in full by the probe.
//   - a mirror miss is trusted when (a) the mirrored segment header still
//     claims the key and (b) the route, re-read after the scans, still
//     names this segment. That ordering is what makes it sound: a split
//     publish narrows the mirrored claim and then writes the directory
//     cache through, both while holding every bucket lock, so any record
//     this probe's stable per-bucket scans could have missed (swept to the
//     sibling) implies the publish unlocked before some scan — and then the
//     route recheck, which runs after all scans, sees the new route.
//   - anything else is a route some publish (or doubling) has moved or is
//     moving: the reader does what a writer does — waits it out
//     (cacheRepair) and retries from the current view.
//
// A read's route and probe are one event, metered once, in segfilter.hits or
// .misses; dircache.* counts writers' routes (lockOwner), and
// TableStats.DirCacheHits / DirCacheMisses read the sums. The returned
// record words stay interpretable under the operation's epoch guard, which
// an indirect match entered.
func (t *Table) searchOpt(pk *probeKey) (pmem.KV, bool) {
	for {
		d := t.cache.route(pk.parts)
		mir := t.mirror(d)
		kv, _, found, stashed := mirSegSearch(t.vlog, mir, pk, false)
		if stashed {
			t.filters.stashProbes.Inc()
		}
		if found || mirClaims(mir, pk.parts) && t.cache.route(pk.parts) == d {
			t.filters.hits.Inc()
			return kv, found
		}
		t.filters.misses.Inc()
		t.cacheRepair(pk.parts)
	}
}

// Delete removes key, reporting whether it was present: DeleteB of its
// little-endian encoding.
func (t *Table) Delete(key uint64) bool {
	var kb [8]byte
	binary.LittleEndian.PutUint64(kb[:], key)
	return t.DeleteB(kb[:])
}

// DeleteB removes a variable-length key, reporting whether it was present.
func (t *Table) DeleteB(key []byte) bool {
	pk := t.probeBytes(key)
	op := t.opBegin(&pk)
	found := t.deleteByProbe(&pk)
	t.opEnd(op, &pk, obs.EvDelete, updOutcome(found, nil))
	return found
}

func (t *Table) deleteByProbe(pk *probeKey) bool {
	parts := pk.parts
	b, b2 := homePair(parts)
	d, mir := t.lockOwner(parts, b, b2)
	seg := d.seg
	kv, loc, found, _ := mirSegSearch(t.vlog, mir, pk, true)
	if found {
		t.segDeleteAt(mir, seg, parts, loc)
		if recIsIndirect(kv.Key) {
			t.retireBlob(recBlobAddr(kv.Key))
		}
		t.count.Add(-1)
	}
	unlockPair(mir, b, b2)
	return found
}

// retireBlob frees a blob once no in-flight reader can still dereference
// it: blobs are the only objects the table retires through its epoch
// manager (segments are never freed, and a doubling frees the old PM
// directory block at once, as no reader reads it). The slot that
// referenced the blob is already unpublished and persisted, so at crash
// granularity the blob is dead either way.
func (t *Table) retireBlob(blob pmem.Addr) {
	t.em.Retire(func() { t.vlog.Free(blob) })
}

// Update overwrites the value of an existing key: UpdateB of their
// little-endian encodings. The bool reports whether the key was present; a
// non-nil error means the key exists but the update did not happen (value
// unchanged): records stored through the log update copy-on-write, which can
// fail with ErrPoolFull (ErrRecordTooLarge is impossible here). Inline
// records update in place (one atomic persisted store, no error path).
// Lock-free readers always observe either the whole old or the whole new
// value.
func (t *Table) Update(key, value uint64) (bool, error) {
	var kb, vb [8]byte
	binary.LittleEndian.PutUint64(kb[:], key)
	binary.LittleEndian.PutUint64(vb[:], value)
	return t.UpdateB(kb[:], vb[:])
}

// UpdateB overwrites the value of an existing variable-length key. The
// returned bool reports presence; the error reports ErrRecordTooLarge,
// ErrPoolFull or — only when converting an inline record needed a split that
// overflowed one-sidedly — ErrSegmentOverflow (the update did not happen). A
// value whose length differs from the stored one is handled by the
// copy-on-write path, including conversions between the inline and log
// representations.
func (t *Table) UpdateB(key, value []byte) (bool, error) {
	if len(key) == 0 || len(key) > pmem.MaxVarKeyLen || len(value) > pmem.MaxVarValueLen {
		return false, ErrRecordTooLarge
	}
	pk := t.probeBytes(key)
	op := t.opBegin(&pk)
	found, err := t.updateByProbe(&pk, value)
	t.opEnd(op, &pk, obs.EvUpdate, updOutcome(found, err))
	return found, err
}

// updateByProbe writes value under the probe's key. The write strategy is
// chosen per record:
//
//   - inline record, 8-byte new value → in-place store of the value word
//     (the original fast path; crash-atomic by word atomicity).
//   - indirect record → copy-on-write: append a new blob, flip the slot's
//     word 0 with one atomic persisted store — the new blob's commit —
//     epoch-retire the old blob. Word 1 (the key's hash) is unchanged, so the
//     flip is a single word whatever the value length.
//   - inline record, non-8-byte value → representation conversion: the new
//     indirect record is inserted alongside the old inline one and the old
//     slot is deleted after it. A crash in between leaves both — first touch
//     compares canonical keys and keeps exactly one, which is correct for an
//     unacknowledged update.
//
// The new blob is allocated lazily on first need and reused across split
// retries; it is freed on any outcome that does not publish it.
func (t *Table) updateByProbe(pk *probeKey, value []byte) (bool, error) {
	p := t.pool
	parts := pk.parts
	b, b2 := homePair(parts)
	blob := pmem.Null
	// freeBlob is for the outcomes that never published the blob (no slot
	// ever referenced it), so no reader can hold it and immediate reuse is
	// safe.
	freeBlob := func() {
		if !blob.IsNull() {
			t.vlog.Free(blob)
		}
	}
	for {
		d, mir := t.lockOwner(parts, b, b2)
		seg := d.seg
		old, loc, found, _ := mirSegSearch(t.vlog, mir, pk, true)
		if !found {
			unlockPair(mir, b, b2)
			freeBlob()
			return false, nil
		}
		ra := slotAddr(seg, loc.bucket, loc.slot)
		w0 := old.Key

		if !recIsIndirect(w0) && len(value) == 8 {
			v := binary.LittleEndian.Uint64(value)
			p.StoreU64(ra.Add(8), v)
			p.Persist(ra.Add(8), 8)
			// Single-word mirror store; for a stash-resident record it
			// happens outside the stash bucket's lock, which is exactly the
			// PM store's own discipline — readers see the old or the new
			// word, both linearizable.
			mir.recWord(loc.bucket, loc.slot, 1).Store(v)
			unlockPair(mir, b, b2)
			freeBlob()
			return true, nil
		}

		// Log-backed value needed: build the blob once (under the locks —
		// acceptable: this path is the variable-length/cross-format case).
		if blob.IsNull() {
			var err error
			blob, err = t.vlog.Append(pk.kb, value)
			if err != nil {
				unlockPair(mir, b, b2)
				return true, t.mapLogErr(err)
			}
			t.vlog.Commit(blob)
		}
		kv := pmem.KV{Key: recPack(blob, len(pk.kb)), Value: parts.Hash}

		if recIsIndirect(w0) {
			// Copy-on-write flip: word 1 already holds the key's hash.
			p.StoreU64(ra, kv.Key)
			p.Persist(ra, 8)
			mir.recWord(loc.bucket, loc.slot, 0).Store(kv.Key)
			t.retireBlob(recBlobAddr(w0))
			unlockPair(mir, b, b2)
			return true, nil
		}

		// Representation conversion (inline → indirect): insert the new
		// record first and only then delete the old inline slot — at every
		// crash point the key exists at least once and at most twice
		// (deduped by recovery).
		if !t.segInsertLocked(mir, seg, parts, kv) {
			unlockPair(mir, b, b2)
			if err := t.split(parts, d); err != nil {
				freeBlob()
				return true, err
			}
			continue
		}
		// loc still names the old inline slot: the new record's insert may
		// have displaced records, but never this one (displacement only
		// moves records homed in the probing neighbor b2; this key's home
		// is b).
		t.segDeleteAt(mir, seg, parts, loc)
		unlockPair(mir, b, b2)
		return true, nil
	}
}
