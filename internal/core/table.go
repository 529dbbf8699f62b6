package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dash/internal/epoch"
	"dash/internal/hashfn"
	"dash/internal/obs"
	"dash/internal/pmem"
)

// Table layer (§4.4–4.6): the public Insert/Get/Delete/Update API, the
// locking protocol tying the layers together, segment-split orchestration
// with a crash-consistent three-step publish, and post-crash recovery.
//
// Concurrency protocol:
//   - Every operation routes key → segment through the DRAM directory cache
//     (dircache.go); the PM directory is consulted only by lock-free
//     validation or to repair a stale route. Every operation runs inside an
//     epoch guard so a retired directory block is never recycled under a
//     reader still traversing it.
//   - Readers are optimistic and lock-free: scan buckets under seqlock
//     version validation, and revalidate the route against the PM directory
//     before concluding "not found". A seqlock-stable positive hit needs no
//     revalidation (see dircache.go).
//   - Writers lock only the key's two candidate buckets (plus stash /
//     displacement buckets, in a fixed deadlock-free order), then check that
//     the locked segment's own PM header claims the key (lockOwner, §4.4):
//     one header line, no PM directory read.
//   - Segment splits are per-segment and concurrent: ownership is claimed by
//     CAS on the segment header's split-state word (which doubles as the
//     persistent split-progress marker), so splits of distinct segments
//     proceed in parallel. The owner copies records into the unpublished
//     sibling one bucket at a time under that bucket's version lock;
//     readers and writers on the other buckets proceed normally. Writers
//     that mutate the splitting segment mirror ("assist") any operation on
//     a key the sibling claims into the sibling too, so the migration front
//     needs no writer-side coordination beyond the marker check. The only
//     stop-the-world moment is the short publish step: all bucket locks are
//     taken, the fully-built sibling is persisted with one flush+fence, the
//     directory entries flip, the old segment's metadata bumps, moved
//     records are swept with one persist per bucket, and the directory
//     cache is written through — then everything unlocks.
//   - Directory doubling (and the entry flips of a publish) serialize on the
//     narrow dirMu; nothing else does. Lock order is: old-segment bucket
//     locks → sibling bucket locks → dirMu, each level acquired in
//     ascending index order (pairs sorted, displacement via trylock).

// Root block layout, at the first usable cacheline of the pool.
const (
	rootAddr = pmem.Addr(pmem.CachelineSize)

	rootOffMagic    = 0
	rootOffFormat   = 8
	rootOffSeed     = 16
	rootOffDir      = 24 // atomic: current directory block
	rootOffAllocNxt = 32 // atomic: bump-allocator frontier
	rootOffVarLog   = 40 // head of the variable-length record log's chunk chain
	rootOffClean    = 48 // cleanShutdownMagic after Close; 0 while the table is open
	rootOffCount    = 56 // record count persisted by a clean Close

	tableMagic  = 0x44617368454831 // "DashEH1"
	tableFormat = 3                // 3 = clean-shutdown marker root; 2 = indirect (varlog) records
	allocStart  = 256              // first allocatable offset; keeps blocks 256-aligned
	allocAlign  = 256

	// cleanShutdownMagic in the root's clean word certifies the image was
	// left by Close with no operation in flight: every segment reconciled,
	// every marker clear, the persisted count exact. Open consumes (clears)
	// it immediately, so a crash after reopening takes the crash path.
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

// Deps bundles a table's explicitly injectable runtime dependencies, so a
// multi-table embedding (the service tier's shards) wires each table's
// machinery by hand instead of relying on constructor-internal defaults.
// The persistent pieces are not here on purpose: the pool is the explicit
// first constructor argument, and the record log is persistent state
// anchored in that pool's root — its handle derives from the pool handle,
// so pool and log always travel together.
type Deps struct {
	// Epoch is the table's epoch-reclamation manager. Managers are strictly
	// per-table state (the table registers its reclamation meters on it and
	// retires its own directory blocks and log blobs through it); injecting
	// one manager into two tables is a misuse. A nil Epoch gets a fresh
	// private manager — the single-table default. Injection exists so an
	// embedding owns the manager's lifecycle and isolation: a reader stalled
	// on one shard's table pins only that shard's reclamation, never a
	// neighbor's.
	Epoch *epoch.Manager
}

// Table is a Dash extendible hash table living in a pmem.Pool.
type Table struct {
	pool *pmem.Pool
	em   *epoch.Manager
	seed uint64

	// vlog is the PM record log holding every variable-length (and every
	// bit-63-keyed uint64) record's key/value blob; bucket slots reference
	// blobs by packed address (record.go). Freed blobs are epoch-deferred
	// like retired directory blocks so lock-free readers never dereference
	// reused bytes.
	vlog *pmem.VarLog

	// cache is the DRAM-resident mirror of the PM directory (dircache.go),
	// the first stop of every operation's key → segment routing.
	cache dirCache

	// filters meters the per-segment DRAM filter mirrors (segfilter.go), the
	// cache's counterpart one layer down: reads probe buckets in DRAM and
	// touch PM only for blob payloads. mirrorSampleMask tunes the sampled
	// mirror-vs-PM cross-check and opSampleMask the flight recorder's op
	// lane (obs.go); both are period-1, and tests set them to 0 to check,
	// or record, every operation.
	filters          segFilters
	mirrorSampleMask uint64
	opSampleMask     uint64

	// dirMu serializes directory mutation: doubling, the entry flips of a
	// split publish, and cache repair/rebuild. Splits themselves are
	// per-segment (claimed via the segment header's split-state word) and
	// run concurrently; they touch dirMu only for their short publish.
	dirMu sync.Mutex

	// DRAM free list of retired PM blocks (old directories), refilled via
	// epoch reclamation and consumed by alloc.
	freeMu   sync.Mutex
	freeList []freeSpan

	count atomic.Int64

	// lazy is the deferred-recovery side table built by Open (lazyrec.go):
	// non-nil while any segment still awaits its first-touch recovery or the
	// background record-log sweep is unfinished. Nil on a created table and
	// after recovery completes, restoring the ungated hot path.
	lazy atomic.Pointer[lazyRecovery]

	// splits counts completed segment splits; splitStallNS accumulates the
	// wall time their exclusive publish windows (all bucket locks held,
	// including any directory doubling) stalled the segment; splitAssists
	// counts writer operations mirrored into an in-flight split's sibling.
	// The migrator probes the sibling for duplicates only when assists
	// happened, so the counter is also load-bearing (see splitMigrate).
	splits       atomic.Uint64
	splitStallNS atomic.Int64
	splitAssists atomic.Uint64

	// Observability (obs.go): reg names every meter, fr is the flight
	// recorder, met the table-level histogram/phase handles. Built by
	// initObs before any operation runs.
	reg *obs.Registry
	fr  *obs.Flight
	met meters

	// Test hooks fired inside split; used by crash-consistency tests to
	// simulate power loss at the protocol's interesting points.
	hookAfterMarker     func()                          // split marker persisted, no records migrated
	hookMidMigrate      func(seg pmem.Addr, bucket int) // after each migrated bucket, outside its lock
	hookAfterSegPersist func()                          // sibling fully persisted, nothing published
	hookMidPublish      func()                          // first directory entry of a multi-entry flip persisted
	hookAfterPublish    func()                          // all entries flipped, old-segment meta/sweep pending
	hookMidSweep        func()                          // first swept bucket persisted, rest pending

	// Varlog crash hooks, the record-log counterparts: after a blob's
	// bytes persist but before its commit word, after commit but before
	// any slot references it, and mid-copy-on-write-update (new blob
	// committed, slot word not yet flipped).
	hookVarAppended  func()
	hookVarCommitted func()
	hookVarMidUpdate func()
}

type freeSpan struct {
	addr pmem.Addr
	size uint64
}

// newTableState builds the DRAM side of a table over pool: what Create and
// Open share before either touches the image.
func newTableState(pool *pmem.Pool, deps Deps, seed uint64) *Table {
	t := &Table{pool: pool, em: deps.Epoch, seed: seed,
		mirrorSampleMask: mirrorSamplePeriod - 1, opSampleMask: opSamplePeriod - 1}
	if t.em == nil {
		t.em = epoch.NewManager()
	}
	t.cache.descs = make(map[pmem.Addr]*segDesc)
	t.vlog = pmem.NewVarLog(pool, rootAddr.Add(rootOffVarLog), 0, t.alloc)
	t.initObs()
	return t
}

// Create formats pool with an empty table and returns it, with default
// dependencies (a private epoch manager). Multi-table embeddings that wire
// dependencies explicitly use CreateWith.
func Create(pool *pmem.Pool, opt Options) (*Table, error) {
	return CreateWith(pool, Deps{}, opt)
}

// CreateWith formats pool with an empty table using explicitly injected
// dependencies; see Deps for what is injectable and why.
func CreateWith(pool *pmem.Pool, deps Deps, opt Options) (*Table, error) {
	if opt.Seed == 0 {
		opt.Seed = hashfn.DefaultSeed
	}
	if opt.InitialDepth == 0 {
		opt.InitialDepth = 1
	}
	p := pool
	t := newTableState(p, deps, opt.Seed)

	p.WriteU64(rootAddr.Add(rootOffMagic), 0) // not a table until fully formatted
	p.WriteU64(rootAddr.Add(rootOffFormat), tableFormat)
	p.WriteU64(rootAddr.Add(rootOffSeed), opt.Seed)
	p.StoreU64(rootAddr.Add(rootOffAllocNxt), allocStart)
	p.WriteU64(rootAddr.Add(rootOffVarLog), 0) // record log grows lazily
	p.WriteU64(rootAddr.Add(rootOffClean), 0)  // open (not cleanly shut down)
	p.WriteU64(rootAddr.Add(rootOffCount), 0)
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
		t.descFor(seg).mir.Store(t.newMirror(opt.InitialDepth, uint64(i)))
		segs[i] = seg
	}
	dir, err := t.alloc(dirSize(opt.InitialDepth))
	if err != nil {
		return nil, err
	}
	dirInitFresh(p, dir, opt.InitialDepth, segs)
	p.StoreU64(rootAddr.Add(rootOffDir), uint64(dir))
	// Magic last: its persist is the commit point of formatting.
	p.WriteU64(rootAddr.Add(rootOffMagic), tableMagic)
	p.Persist(rootAddr, pmem.CachelineSize)
	t.cacheRebuild()
	return t, nil
}

// Open revives the table stored in pool with O(directory) work up front
// (§4.6 instant restart): directory reconciliation, segment metadata and
// lock-word fixes, dirCache rebuild. Everything O(data) — duplicate/ghost
// sweeps, count re-derivation, filter-mirror installs — is deferred to each
// segment's first touch (lazyrec.go), and the record-log sweep runs as an
// incremental background pass. After a clean shutdown (Close persisted the
// root's clean marker) even the deferred sweeps are skipped: first touch
// only installs the segment's DRAM mirror. Call RecoverAll to force the
// deferred work to complete synchronously.
func Open(pool *pmem.Pool) (*Table, error) {
	return OpenWith(pool, Deps{})
}

// OpenWith revives the table stored in pool like Open, using explicitly
// injected dependencies; see Deps.
func OpenWith(pool *pmem.Pool, deps Deps) (*Table, error) {
	p := pool
	if p.ReadU64(rootAddr.Add(rootOffMagic)) != tableMagic {
		return nil, ErrNotATable
	}
	if f := p.ReadU64(rootAddr.Add(rootOffFormat)); f != tableFormat {
		return nil, fmt.Errorf("core: unsupported table format %d (want %d)", f, tableFormat)
	}
	t := newTableState(p, deps, p.ReadU64(rootAddr.Add(rootOffSeed)))
	clean := p.ReadU64(rootAddr.Add(rootOffClean)) == cleanShutdownMagic
	// Consume the marker before anything else: from here on the image can
	// diverge from the persisted count, so a crash must take the crash path.
	p.WriteU64(rootAddr.Add(rootOffClean), 0)
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
	p.WriteU64(rootAddr.Add(rootOffCount), uint64(t.count.Load()))
	p.WriteU64(rootAddr.Add(rootOffClean), cleanShutdownMagic)
	p.Persist(rootAddr, pmem.CachelineSize)
}

// alloc carves size bytes (256-aligned) out of the pool, reusing retired
// blocks when one fits. The bump frontier is persisted immediately after the
// CAS: a crash can at worst leak a block that was never published, never
// hand out the same published block twice.
func (t *Table) alloc(size uint64) (pmem.Addr, error) {
	size = (size + allocAlign - 1) &^ (allocAlign - 1)
	t.freeMu.Lock()
	for i, s := range t.freeList {
		if s.size >= size {
			t.freeList = append(t.freeList[:i], t.freeList[i+1:]...)
			t.freeMu.Unlock()
			return s.addr, nil
		}
	}
	t.freeMu.Unlock()
	na := rootAddr.Add(rootOffAllocNxt)
	for {
		cur := t.pool.LoadU64(na)
		next := cur + size
		if next > t.pool.Size() {
			return 0, ErrPoolFull
		}
		if t.pool.CompareAndSwapU64(na, cur, next) {
			t.pool.Persist(na, 8)
			return pmem.Addr(cur), nil
		}
	}
}

func (t *Table) freePush(a pmem.Addr, size uint64) {
	t.freeMu.Lock()
	t.freeList = append(t.freeList, freeSpan{addr: a, size: size})
	t.freeMu.Unlock()
}

func (t *Table) parts(key uint64) hashfn.Parts {
	return hashfn.Split(hashfn.HashU64(key, t.seed))
}

// resolve walks the PM directory → segment for a key under the current
// global depth: the authoritative (and charged) route, for the lock-free
// callers — validateRoute and split's post-claim re-check. Both loads are
// atomic; a torn view across a concurrent split is caught by the
// segment-pattern check.
func (t *Table) resolve(parts hashfn.Parts) pmem.Addr {
	dir := pmem.Addr(t.pool.LoadU64(rootAddr.Add(rootOffDir)))
	return dirLoadEntry(t.pool, dir, parts.DirIndex(dirDepth(t.pool, dir)))
}

// validateRoute is the lock-free route check: (a) the PM directory still
// routes the key to seg and (b) seg's own pattern claims the key. Readers
// call it before trusting a negative search they cannot settle in DRAM;
// holding no lock they may catch a publish half done, hence both halves. A
// lock holder cannot, and skips the directory (lockOwner).
func (t *Table) validateRoute(parts hashfn.Parts, seg pmem.Addr) bool {
	if t.resolve(parts) != seg {
		return false
	}
	return segClaims(t.pool, seg, parts)
}

// lockOwner is every writer's first step: route the key through the DRAM
// directory cache, take its pair locks in the routed segment, and check that
// this segment's own PM header claims the key — one charged read, and under
// the locks sufficient (segClaims has the argument). A failed claim means
// the route was stale: unlock, repair it from the PM directory, retry.
// Returns with the pair locks held in the key's owning segment, as its
// descriptor and the mirror to write through to. The claim is read from PM,
// never from the mirror; the cache only proposes candidates.
func (t *Table) lockOwner(parts hashfn.Parts, b, b2 int) (*segDesc, *segMirror) {
	for {
		d := t.cache.route(parts)
		t.ensureRecovered(d)
		seg, mir := d.seg, d.mir.Load()
		lockPair(t.pool, mir, seg, b, b2)
		if segClaims(t.pool, seg, parts) {
			t.cache.hits.Inc()
			return d, mir
		}
		unlockPair(t.pool, mir, seg, b, b2)
		t.cache.misses.Inc()
		t.cacheRepair(parts)
	}
}

// Insert adds key → value. It fails with ErrKeyExists if the key is present
// and ErrPoolFull if the pool cannot grow the table any further. Keys with
// bit 63 clear are stored inline (the original fixed-record fast path);
// bit-63 keys cannot use the inline format (its discriminator bit) and
// route through the record log as 8-byte blobs.
func (t *Table) Insert(key, value uint64) error {
	pk := t.probeU64(key)
	op := t.opBegin(&pk)
	var err error
	if key&recIndirectBit != 0 {
		var kb, vb [8]byte
		binary.LittleEndian.PutUint64(kb[:], key)
		binary.LittleEndian.PutUint64(vb[:], value)
		err = t.insertIndirect(&pk, kb[:], vb[:])
	} else {
		err = t.insertKV(&pk, pmem.KV{Key: key, Value: value})
	}
	t.opEnd(op, &pk, obs.EvInsert, insOutcome(err))
	return err
}

// InsertB adds a variable-length record. Keys must be non-empty; keys and
// values past the log bounds fail with ErrRecordTooLarge. An 8-byte key is
// the same key as its little-endian uint64 (the two APIs are views of one
// keyspace), and an 8-byte-key/8-byte-value record whose key has bit 63
// clear is stored inline, taking the fixed-record fast path.
func (t *Table) InsertB(key, value []byte) error {
	if len(key) == 0 || len(key) > pmem.MaxVarKeyLen || len(value) > pmem.MaxVarValueLen {
		return ErrRecordTooLarge
	}
	pk := t.probeBytes(key)
	op := t.opBegin(&pk)
	var err error
	if len(key) == 8 && len(value) == 8 && binary.LittleEndian.Uint64(key)&recIndirectBit == 0 {
		err = t.insertKV(&pk, pmem.KV{
			Key:   binary.LittleEndian.Uint64(key),
			Value: binary.LittleEndian.Uint64(value),
		})
	} else {
		err = t.insertIndirect(&pk, key, value)
	}
	t.opEnd(op, &pk, obs.EvInsert, insOutcome(err))
	return err
}

// insertIndirect writes the blob (with the crash hooks between its persist,
// commit and publication) and inserts the packed record. The blob is
// allocated before any lock is taken and survives split retries; it is
// returned to the log on any failure. On most failures (duplicate key,
// pool exhaustion) the record was never published, no reader can hold the
// blob, and the free is immediate — but the ErrSegmentOverflow rollback
// deleted a record that WAS transiently published (a stash placement
// releases the stash-bucket lock before the rollback, and readers reach
// the stash through preexisting overflow metadata), so that path must
// epoch-retire the blob like any other reader-reachable free.
func (t *Table) insertIndirect(pk *probeKey, key, value []byte) error {
	blob, err := t.vlog.Append(key, value)
	if err != nil {
		return t.mapLogErr(err)
	}
	if t.hookVarAppended != nil {
		t.hookVarAppended()
	}
	t.vlog.Commit(blob)
	if t.hookVarCommitted != nil {
		t.hookVarCommitted()
	}
	kv := pmem.KV{Key: recPack(blob, len(key)), Value: pk.parts.Hash}
	if err := t.insertKV(pk, kv); err != nil {
		if errors.Is(err, ErrSegmentOverflow) {
			t.retireBlob(blob)
		} else {
			t.vlog.Free(blob)
		}
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
// insert, split-assist mirror, or split-and-retry.
func (t *Table) insertKV(pk *probeKey, kv pmem.KV) error {
	p := t.pool
	parts := pk.parts
	b, b2 := homePair(parts)
	for {
		d, mir := t.lockOwner(parts, b, b2)
		seg := d.seg
		if _, found := segFindLocked(p, t.vlog, seg, pk); found {
			unlockPair(p, mir, seg, b, b2)
			return ErrKeyExists
		}
		if segInsertLocked(p, mir, seg, parts, kv, true, t.seed) {
			if sib := t.splitSibling(d, parts); sib != nil && !t.assistInsert(sib, pk, kv) {
				// The in-flight split's sibling cannot absorb the key's
				// copy: the split is overflowing pathologically. Undo and
				// surface it, matching what the migrator will report.
				if loc, found := segFindLocked(p, t.vlog, seg, pk); found {
					segDeleteAt(p, mir, seg, parts, loc, true, true)
				}
				unlockPair(p, mir, seg, b, b2)
				return ErrSegmentOverflow
			}
			unlockPair(p, mir, seg, b, b2)
			t.count.Add(1)
			return nil
		}
		unlockPair(p, mir, seg, b, b2)
		if err := t.split(parts, d); err != nil {
			return err
		}
	}
}

// Get returns the value stored under key. Lock-free, and on the hot path
// free of PM metadata traffic: the route comes from the DRAM directory
// cache, and a found record under a stable bucket version is immediately
// valid (segments are never reclaimed, and a key's record is physically
// present only in segments that route to it — see dircache.go). A miss is
// trusted only after the route revalidates against the PM directory; a
// stale route instead repairs the cache and retries. For a record stored
// through the log the result is the little-endian uint64 of the value's
// first 8 bytes (zero-padded when shorter) — the fixed-width view of a
// variable value.
func (t *Table) Get(key uint64) (uint64, bool) {
	pk := t.probeU64(key)
	op := t.opBegin(&pk)
	kv, blobHot, found := t.searchOpt(&pk)
	var v uint64
	if found {
		v = recValueU64Opt(t.vlog, kv, blobHot)
	}
	t.opEnd(op, &pk, obs.EvGet, pk.path)
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
	kv, blobHot, found := t.searchOpt(&pk)
	if found {
		dst = recAppendValueOpt(t.vlog, dst, kv, blobHot)
	}
	t.opEnd(op, &pk, obs.EvGet, pk.path)
	return dst, found
}

// searchOpt is the shared lock-free read protocol, probing the segment's
// DRAM filter mirror first (segfilter.go):
//
//   - a stable mirror hit is immediately valid, by the same argument as a
//     stable PM hit (a key's record is physically present only in segments
//     the directory routes it to, and the mirror's shadow seqlock makes a
//     stable scan equivalent to a stable PM scan). blobHot reports that an
//     indirect hit's blob was already charged in full by the probe.
//   - a mirror miss is trusted entirely in DRAM when (a) the mirrored
//     segment header still claims the key and (b) the route, re-read after
//     the scans, still names this segment. That ordering is what makes it
//     sound: a split publish updates the directory cache and the mirrored
//     claim while holding every bucket lock, so any record this probe's
//     stable per-bucket scans could have missed (swept to the sibling)
//     implies the publish unlocked before some scan — and then the
//     route recheck, which runs after all scans, sees the new route.
//   - anything else falls back to PM: a validateRoute success there means
//     DRAM disagreed with PM truth, so the mirror heals itself
//     (mirrorRepair) and the probe retries; a failure is the ordinary
//     stale-route path (cacheRepair + retry).
//
// A sampled cross-check (mirrorMaybeCheck) guards the trusted outcomes
// against silent mirror corruption. The returned record words stay
// interpretable under the caller's epoch guard.
func (t *Table) searchOpt(pk *probeKey) (pmem.KV, bool, bool) {
	p := t.pool
	for {
		d := t.cache.route(pk.parts)
		t.ensureRecovered(d)
		seg, mir := d.seg, d.mir.Load()
		if mir == nil {
			// No mirror installed (unexpected steady-state): PM path.
			t.filters.bypass.Inc()
			pk.path = obs.PathPMFallback
			if kv, found := segSearchOpt(p, t.vlog, seg, pk); found {
				t.cache.hits.Inc()
				return kv, false, true
			}
			if t.validateRoute(pk.parts, seg) {
				t.cache.hits.Inc()
				return pmem.KV{}, false, false
			}
			t.cache.misses.Inc()
			t.cacheRepair(pk.parts)
			continue
		}
		kv, blobHot, found := mirSegSearch(t.vlog, mir, pk)
		if found {
			t.cache.hits.Inc()
			t.filters.hits.Inc()
			pk.path = obs.PathMirrorHit
			t.mirrorMaybeCheck(seg, mir, pk)
			return kv, blobHot, true
		}
		if mirClaims(mir, pk.parts) {
			if t.cache.route(pk.parts) == d {
				t.cache.hits.Inc()
				t.filters.hits.Inc()
				pk.path = obs.PathMirrorNeg
				t.mirrorMaybeCheck(seg, mir, pk)
				return pmem.KV{}, false, false
			}
		}
		t.filters.misses.Inc()
		if t.validateRoute(pk.parts, seg) {
			// PM vouches for the route the DRAM state would not: the
			// mirror (claim or directory cache entry) is out of sync with
			// PM. Heal the mirror and retry; a stale cache entry instead
			// fails the validation below and repairs there.
			t.mirrorRepair(seg, mir)
			continue
		}
		t.cache.misses.Inc()
		t.cacheRepair(pk.parts)
	}
}

// Delete removes key, reporting whether it was present.
func (t *Table) Delete(key uint64) bool {
	pk := t.probeU64(key)
	return t.deleteOp(&pk)
}

// DeleteB removes a variable-length key, reporting whether it was present.
func (t *Table) DeleteB(key []byte) bool {
	pk := t.probeBytes(key)
	return t.deleteOp(&pk)
}

func (t *Table) deleteOp(pk *probeKey) bool {
	op := t.opBegin(pk)
	found := t.deleteByProbe(pk)
	t.opEnd(op, pk, obs.EvDelete, updOutcome(found, nil))
	return found
}

func (t *Table) deleteByProbe(pk *probeKey) bool {
	p := t.pool
	parts := pk.parts
	b, b2 := homePair(parts)
	d, mir := t.lockOwner(parts, b, b2)
	seg := d.seg
	loc, found := segFindLocked(p, t.vlog, seg, pk)
	if found {
		w0 := p.QuietLoadU64(recordAddr(segBucket(seg, loc.bucket), loc.slot))
		segDeleteAt(p, mir, seg, parts, loc, true, true)
		if sib := t.splitSibling(d, parts); sib != nil {
			t.assistDelete(sib, pk)
		}
		if recIsIndirect(w0) {
			t.retireBlob(recBlobAddr(w0))
		}
		t.count.Add(-1)
	}
	unlockPair(p, mir, seg, b, b2)
	return found
}

// retireBlob frees a blob once no in-flight reader can still dereference
// it, the same epoch deferral retired directory blocks use. The slot that
// referenced the blob is already unpublished and persisted, so at crash
// granularity the blob is dead either way.
func (t *Table) retireBlob(blob pmem.Addr) {
	t.em.Retire(func() { t.vlog.Free(blob) })
}

// Update overwrites the value of an existing key. The bool reports whether
// the key was present; a non-nil error means the key exists but the update
// did not happen (value unchanged): records stored through the log update
// copy-on-write, which can fail with ErrPoolFull, ErrRecordTooLarge is
// impossible here, and a pathological sibling overflow during an in-flight
// split surfaces as ErrSegmentOverflow. Inline records update in place
// (one atomic persisted store, no error path). Lock-free readers always
// observe either the whole old or the whole new value.
func (t *Table) Update(key, value uint64) (bool, error) {
	pk := t.probeU64(key)
	return t.updateOp(&pk, nil, value)
}

// UpdateB overwrites the value of an existing variable-length key. The
// returned bool reports presence; the error reports ErrRecordTooLarge,
// ErrPoolFull or ErrSegmentOverflow (the update did not happen). A value
// whose length differs from the stored one is handled by the copy-on-write
// path, including conversions between the inline and log representations.
func (t *Table) UpdateB(key, value []byte) (bool, error) {
	if len(key) == 0 || len(key) > pmem.MaxVarKeyLen || len(value) > pmem.MaxVarValueLen {
		return false, ErrRecordTooLarge
	}
	pk := t.probeBytes(key)
	return t.updateOp(&pk, value, 0)
}

func (t *Table) updateOp(pk *probeKey, vb []byte, vu uint64) (bool, error) {
	op := t.opBegin(pk)
	found, err := t.updateByProbe(pk, vb, vu)
	t.opEnd(op, pk, obs.EvUpdate, updOutcome(found, err))
	return found, err
}

// updateByProbe implements both update flavors: vb == nil is the uint64
// path (value = vu). The write strategy is chosen per record:
//
//   - inline record, 8-byte new value → in-place WriteValue (the original
//     fast path; crash-atomic by word atomicity).
//   - indirect record → copy-on-write: append+commit a new blob, flip the
//     slot's word 0 with one atomic persisted store, epoch-retire the old
//     blob. Word 1 (the key's hash) is unchanged, so the flip is a single
//     word whatever the value length.
//   - inline record, non-8-byte value → representation conversion: the new
//     indirect record is inserted alongside the old inline one and the old
//     slot is deleted after the sibling assist succeeds. A crash in
//     between leaves both — recovery's canonical-key dedupe keeps exactly
//     one, which is correct for an unacknowledged update.
//
// The new blob is allocated lazily on first need and reused across split
// retries; it is freed on any outcome that does not publish it.
func (t *Table) updateByProbe(pk *probeKey, vb []byte, vu uint64) (bool, error) {
	p := t.pool
	parts := pk.parts
	b, b2 := homePair(parts)
	blob := pmem.Null
	// freeBlob is only for outcomes where the blob was never published (no
	// slot ever referenced it), so no reader can hold it and immediate
	// reuse is safe; the conversion rollback below, whose record WAS
	// transiently readable, epoch-retires instead.
	freeBlob := func() {
		if !blob.IsNull() {
			t.vlog.Free(blob)
		}
	}
	inline8 := vb == nil || len(vb) == 8
	for {
		d, mir := t.lockOwner(parts, b, b2)
		seg := d.seg
		loc, found := segFindLocked(p, t.vlog, seg, pk)
		if !found {
			unlockPair(p, mir, seg, b, b2)
			freeBlob()
			return false, nil
		}
		ra := recordAddr(segBucket(seg, loc.bucket), loc.slot)
		w0 := p.QuietLoadU64(ra)

		if !recIsIndirect(w0) && inline8 {
			v := vu
			if vb != nil {
				v = binary.LittleEndian.Uint64(vb)
			}
			p.WriteValue(ra, v)
			p.Persist(ra.Add(8), 8)
			if mir != nil {
				// Single-word mirror store; for a stash-resident record it
				// happens outside the stash bucket's lock, which is exactly
				// the PM store's own discipline — readers see the old or
				// the new word, both linearizable.
				mir.recWord(loc.bucket, loc.slot, 1).Store(v)
			}
			if sib := t.splitSibling(d, parts); sib != nil {
				t.assistOverwrite(sib, pk, pmem.KV{Key: w0, Value: v}, false)
			}
			unlockPair(p, mir, seg, b, b2)
			freeBlob()
			return true, nil
		}

		// Log-backed value needed: build the blob once (under the locks —
		// acceptable: this path is the variable-length/cross-format case).
		if blob.IsNull() {
			var kbuf [8]byte
			value := vb
			if value == nil {
				var vbuf [8]byte
				binary.LittleEndian.PutUint64(vbuf[:], vu)
				value = vbuf[:]
			}
			var err error
			blob, err = t.vlog.Append(pk.keyBytes(&kbuf), value)
			if err != nil {
				unlockPair(p, mir, seg, b, b2)
				return true, t.mapLogErr(err)
			}
			t.vlog.Commit(blob)
		}
		if t.hookVarMidUpdate != nil {
			t.hookVarMidUpdate()
		}
		kv := pmem.KV{Key: recPack(blob, pk.keyLen()), Value: parts.Hash}

		if recIsIndirect(w0) {
			// Copy-on-write flip: word 1 already holds the key's hash.
			p.StoreU64(ra, kv.Key)
			p.Persist(ra, 8)
			if mir != nil {
				mir.recWord(loc.bucket, loc.slot, 0).Store(kv.Key)
			}
			if sib := t.splitSibling(d, parts); sib != nil {
				t.assistOverwrite(sib, pk, kv, false)
			}
			t.retireBlob(recBlobAddr(w0))
			unlockPair(p, mir, seg, b, b2)
			return true, nil
		}

		// Representation conversion (inline → indirect): insert the new
		// record first, mirror it into any in-flight split's sibling, and
		// only then delete the old inline slot — at every crash point the
		// key exists at least once and at most twice (deduped by recovery).
		if !segInsertLocked(p, mir, seg, parts, kv, true, t.seed) {
			unlockPair(p, mir, seg, b, b2)
			if err := t.split(parts, d); err != nil {
				freeBlob()
				return true, err
			}
			continue
		}
		if sib := t.splitSibling(d, parts); sib != nil && !t.assistOverwrite(sib, pk, kv, true) {
			// Sibling cannot absorb the converted record: roll the
			// conversion back (delete the new record, old value intact).
			// The deleted record was transiently published — a stash
			// placement is readable the moment segInsertLocked drops the
			// stash lock — so the blob is epoch-retired, not freed for
			// immediate reuse.
			if nloc, ok := segFindW0Locked(p, seg, parts, kv.Key); ok {
				segDeleteAt(p, mir, seg, parts, nloc, true, true)
			}
			unlockPair(p, mir, seg, b, b2)
			t.retireBlob(blob)
			return true, ErrSegmentOverflow
		}
		// loc still names the old inline slot: the new record's insert may
		// have displaced records, but never this one (displacement only
		// moves records homed in the probing neighbor b2; this key's home
		// is b).
		segDeleteAt(p, mir, seg, parts, loc, true, true)
		unlockPair(p, mir, seg, b, b2)
		return true, nil
	}
}

// split replaces oldSeg by two segments of local depth+1 with bounded
// stalls. Ownership is claimed by CAS on the segment's split-state word
// (per-segment: splits of distinct segments run in parallel; a loser waits
// the winner out and retries its operation). The owner then:
//
//  1. allocates and initializes the sibling, and persists the split-progress
//     marker (sibling address | in-flight bit) into oldSeg's header — the
//     point from which a crash rolls back by clearing the marker;
//  2. migrates the sibling's half of the records one bucket at a time under
//     that bucket's version lock (splitMigrate) — readers and writers on
//     the other 65 buckets proceed, and writers mirror sibling-claimed
//     mutations into the sibling themselves (assist*);
//  3. publishes (splitPublish): the only stop-the-world step — under all
//     bucket locks the sibling is persisted with one flush+fence, the
//     directory entries flip (doubling first if needed, both under dirMu),
//     oldSeg's metadata bumps and its moved records are swept with one
//     persist per bucket, and the directory cache is written through.
//
// A crash before the first entry flip leaves the sibling unpublished:
// recovery clears the marker and the block leaks. A crash after it leaves
// the directory image authoritative: recovery completes the flips, fixes
// metadata and sweeps duplicates exactly as under the old protocol.
func (t *Table) split(parts hashfn.Parts, old *segDesc) error {
	p, oldSeg := t.pool, old.seg
	t.fr.Record(obs.EvSplitTrigger, obs.TagNone, uint64(oldSeg), 0)
	spa := oldSeg.Add(segOffSplit)
	if !p.CompareAndSwapU64(spa, 0, splitStateInFlight) {
		// Another goroutine owns this segment's split. Wait it out (no
		// locks held here); the caller revalidates its route and retries.
		for p.QuietLoadU64(spa)&splitStateInFlight != 0 {
			runtime.Gosched()
		}
		return nil
	}
	// We own the split. Between the failed insert that brought us here and
	// the claim, a finished split may have relocated the key range or made
	// room; re-check cheaply and release the claim if so. The claim value
	// is transient (never persisted): recovery clears markers wholesale.
	b, b2 := homePair(parts)
	if t.resolve(parts) != oldSeg ||
		bucketFreeSlots(p, segBucket(oldSeg, b)) > 0 ||
		bucketFreeSlots(p, segBucket(oldSeg, b2)) > 0 {
		p.StoreU64(spa, 0)
		return nil
	}
	t.fr.Record(obs.EvSplitCAS, obs.TagNone, uint64(oldSeg), 0)
	l, pat := segMeta(p, oldSeg)

	newSeg, err := t.alloc(segmentSize)
	if err != nil {
		p.StoreU64(spa, 0)
		t.fr.Record(obs.EvSplitRollback, obs.TagNone, uint64(oldSeg), 0)
		return err
	}
	segInit(p, newSeg, l+1, pat<<1|1)
	// The sibling's descriptor and mirror must hang off old before the marker
	// publishes the sibling to assisting writers: from the first assist on,
	// every sibling mutation writes through, so the mirror is complete at
	// publish time with no rebuild pass.
	sib := &segDesc{seg: newSeg}
	sib.depth.Store(uint32(l + 1))
	sib.mir.Store(t.newMirror(l+1, pat<<1|1))
	old.sib.Store(sib)

	// Snapshot the assist counter before the marker becomes visible: any
	// assist that could race the copy loop bumps it past a0, which is what
	// tells splitMigrate it must probe for duplicates.
	a0 := t.splitAssists.Load()
	p.StoreU64(spa, uint64(newSeg)|splitStateInFlight)
	p.Persist(spa, 8)
	if t.hookAfterMarker != nil {
		t.hookAfterMarker()
	}

	mstart := obs.Now()
	sc, ok := t.splitMigrate(old, sib, l, a0)
	t.met.splitMigrateNS.Record(obs.Now() - mstart)
	defer splitScanPool.Put(sc)
	if !ok {
		t.splitRollback(old, sib) // pathological one-sided overflow
		return ErrSegmentOverflow
	}
	t.fr.Record(obs.EvSplitMigrate, obs.TagNone, uint64(oldSeg), uint64(newSeg))
	return t.splitPublish(old, sib, l, pat, sc)
}

// splitRollback abandons an unpublished split by clearing the marker. The
// sibling is leaked rather than reused — an assisting writer that read the
// marker just before the clear may still be writing into it under its bucket
// locks, and through the mirror it fetched, which absorbs those stores
// harmlessly: nothing routes to the leaked segment, and a writer that looks
// for the sibling after the clear finds none (splitSibling).
func (t *Table) splitRollback(old, sib *segDesc) {
	old.sib.Store(nil) // before the marker clear lets the next split claim old
	spa := old.seg.Add(segOffSplit)
	t.pool.StoreU64(spa, 0)
	t.pool.Persist(spa, 8)
	t.filters.bytes.Add(^(segMirrorBytes - 1))
	t.fr.Record(obs.EvSplitRollback, obs.TagNone, uint64(old.seg), uint64(sib.seg))
}

// splitMigrate copies every record the sibling claims from oldSeg into the
// unpublished newSeg, one bucket at a time under that bucket's version lock
// — the low-stall replacement for freezing all 66 buckets at once. Normal
// buckets are consistent under their own lock (every mutation of a record
// in bucket bi holds bi's lock). Stash records are guarded by their *home*
// bucket's lock instead, so the stash pass locks each record's home pair
// and re-verifies the slot under it. Copies are not persisted individually:
// the publish step makes the whole sibling durable with one flush+fence
// before any directory entry points at it, and a crash before that rolls
// the sibling back wholesale.
//
// a0 is the split-assist counter snapshot from before the marker was
// published: while the counter still equals a0 no writer can have mirrored
// an op into any sibling, and the copy loop skips the duplicate probe.
// Returns false on pathological one-sided overflow.
// splitScan is what splitMigrate's optimistic source scan learned, reused
// by the publish to sweep without re-reading records: per normal bucket the
// seqlock version the stable scan observed and the bitmap of moved
// (sibling-claimed) slots. A bucket whose version at publish time differs
// from ver[bi]+1 (+1 for the publish's own lock) was mutated after the scan
// and is re-scanned; the rest sweep by bitmap alone.
//
// Instances are pooled: a split allocates nothing steady-state, so the
// resize path adds no GC pressure (on small-core boxes, GC mark assists
// were showing up as multi-ms latency outliers dwarfing the splits
// themselves).
type splitScan struct {
	ver     [normalBuckets]uint64
	moved   [normalBuckets]uint64
	cand    []splitCand
	grouped []splitCand
	known   [totalBuckets]uint64
	kvalid  [totalBuckets]bool
	keyBuf  []byte // scratch for duplicate probes on indirect records
}

var splitScanPool = sync.Pool{New: func() any { return new(splitScan) }}

// splitCand is one sibling-claimed record the scan found: where it lives in
// the old segment (for the locked re-verify), its word 0 as scanned (the
// record's physical identity — an inline key or a packed blob address) and
// its hash parts (read from the record words; the scan never dereferences
// blobs, which is what keeps split cost independent of record size).
type splitCand struct {
	w0   uint64
	rec  pmem.Addr // record address in the old segment
	meta pmem.Addr // its bucket's meta word
	slot int
	home int
	rp   hashfn.Parts
}

func (t *Table) splitMigrate(old, sib *segDesc, l uint8, a0 uint64) (*splitScan, bool) {
	p, oldSeg, newSeg := t.pool, old.seg, sib.seg
	oldMir, newMir := old.mir.Load(), sib.mir.Load()

	// Phase 1 — optimistic scan, no locks: migration never mutates the old
	// segment, so each bucket is snapshotted seqlock-style (stable version
	// across the scan, like bucketSearchOpt). The whole segment is charged
	// as one streaming read up front — a sequential sweep of its lines,
	// exactly what the hardware prefetcher would serve — and the per-word
	// loads are quiet (one-charge-per-line).
	p.TouchRead(oldSeg, segmentSize)
	sc := splitScanPool.Get().(*splitScan)
	sc.cand = sc.cand[:0]
	for bi := 0; bi < normalBuckets; bi++ {
		ba := segBucket(oldSeg, bi)
		va := ba.Add(bkOffVersion)
		for {
			v := p.QuietLoadU64(va)
			if v&1 != 0 {
				runtime.Gosched()
				continue
			}
			m := p.QuietLoadU64(ba.Add(bkOffMeta))
			n0 := len(sc.cand)
			moved := uint64(0)
			for slot := 0; slot < slotsPerBucket; slot++ {
				if !metaSlotUsed(m, slot) {
					continue
				}
				ra := recordAddr(ba, slot)
				w0 := p.QuietLoadU64(ra)
				rp := hashfn.Split(recHash(pmem.KV{Key: w0, Value: p.QuietLoadU64(ra.Add(8))}, t.seed))
				if rp.DepthBit(l) {
					moved |= 1 << uint(slot)
					sc.cand = append(sc.cand, splitCand{
						w0: w0, rec: ra, meta: ba.Add(bkOffMeta),
						slot: slot, home: int(rp.BucketIndex(bucketBits)), rp: rp,
					})
				}
			}
			if p.QuietLoadU64(va) == v {
				sc.ver[bi], sc.moved[bi] = v, moved
				break
			}
			sc.cand = sc.cand[:n0] // torn snapshot; rescan this bucket
		}
	}

	// Phase 2 — copy, grouped by destination home pair, under the sibling's
	// pair locks only. The protocol needs no old-segment locks: every
	// sibling-claimed mutation mirrors itself into the sibling under these
	// same locks (assist*), so re-verifying the source slot while holding
	// them is race-free — a slot that still carries the key cannot lose it
	// until we unlock, and one that changed was handled by its writer's
	// assist. Copies are not persisted individually; the publish makes the
	// whole sibling durable with one flush+fence.
	var cnt [normalBuckets + 1]int
	for _, c := range sc.cand {
		cnt[c.home+1]++
	}
	for h := 1; h <= normalBuckets; h++ {
		cnt[h] += cnt[h-1]
	}
	if cap(sc.grouped) < len(sc.cand) {
		sc.grouped = make([]splitCand, len(sc.cand))
	}
	grouped := sc.grouped[:len(sc.cand)]
	pos := cnt
	for _, c := range sc.cand {
		grouped[pos[c.home]] = c
		pos[c.home]++
	}
	for h := 0; h < normalBuckets; h++ {
		if cnt[h+1] > cnt[h] {
			h2 := (h + 1) % normalBuckets
			lockPair(p, newMir, newSeg, h, h2)
			for _, c := range grouped[cnt[h]:cnt[h+1]] {
				// Re-verify under the sibling lock; both loads share lines
				// the scan already charged. Identity is the scanned word 0
				// for inline records; for indirect records it is the stored
				// hash — a copy-on-write update flips word 0 to a new blob
				// but keeps the hash, and copying the *current* words below
				// picks up exactly that freshest blob.
				w0 := p.QuietLoadU64(c.rec)
				w1 := p.QuietLoadU64(c.rec.Add(8))
				if !metaSlotUsed(p.QuietLoadU64(c.meta), c.slot) || !recSameIdentity(c.w0, w0, w1, c.rp.Hash) {
					continue // deleted or replaced; its writer's assist covered the sibling
				}
				// Freshest value: an update between scan and copy either
				// already landed (read here) or will assist after we unlock.
				kv := pmem.KV{Key: w0, Value: w1}
				if t.splitAssists.Load() != a0 {
					var pk probeKey
					pk, sc.keyBuf = probeOfRecord(t.vlog, kv, c.rp, sc.keyBuf)
					if _, dup := segFindLocked(p, t.vlog, newSeg, &pk); dup {
						continue
					}
				}
				if !segInsertLocked(p, newMir, newSeg, c.rp, kv, false, t.seed) {
					unlockPair(p, newMir, newSeg, h, h2)
					return sc, false
				}
			}
			unlockPair(p, newMir, newSeg, h, h2)
		}
		if t.hookMidMigrate != nil {
			t.hookMidMigrate(oldSeg, h)
		}
	}

	// Phase 3 — stash records; these mutate under their home bucket's lock,
	// so each is copied under its old-segment home pair plus the sibling
	// pair (this is the one place migration still takes old-segment locks,
	// bounded by the stash's 28 slots).
	for j := 0; j < stashBuckets; j++ {
		sa := segBucket(oldSeg, normalBuckets+j)
		for slot := 0; slot < slotsPerBucket; slot++ {
			if !t.splitCopyStashSlot(oldMir, newMir, oldSeg, newSeg, sa, slot, l, a0) {
				return sc, false
			}
		}
		if t.hookMidMigrate != nil {
			t.hookMidMigrate(oldSeg, normalBuckets+j)
		}
	}
	return sc, true
}

// splitCopyStashSlot migrates one stash slot of oldSeg. Stash records
// mutate only under their home bucket's lock, so the slot's key is read
// optimistically, its home pair locked, and the slot re-verified under the
// locks; a slot that changed identity in between is retried with the new
// key (bounded in practice: slots change only while writers win the race).
// Loads are quiet: splitMigrate's whole-segment TouchRead streamed these
// lines microseconds earlier in this same split.
func (t *Table) splitCopyStashSlot(oldMir, newMir *segMirror, oldSeg, newSeg, sa pmem.Addr, slot int, l uint8, a0 uint64) bool {
	p := t.pool
	for {
		m := p.QuietLoadU64(sa.Add(bkOffMeta))
		if !metaSlotUsed(m, slot) {
			return true
		}
		kv0 := p.QuietReadKV(recordAddr(sa, slot))
		rp := recSplitParts(kv0, t.seed)
		hb, hb2 := homePair(rp)
		lockPair(p, oldMir, oldSeg, hb, hb2)
		m = p.QuietLoadU64(sa.Add(bkOffMeta))
		kv := p.QuietReadKV(recordAddr(sa, slot))
		if !metaSlotUsed(m, slot) || !recSameIdentity(kv0.Key, kv.Key, kv.Value, rp.Hash) {
			unlockPair(p, oldMir, oldSeg, hb, hb2)
			continue
		}
		ok := true
		if rp.DepthBit(l) {
			lockPair(p, newMir, newSeg, hb, hb2)
			dup := false
			if t.splitAssists.Load() != a0 {
				pk, _ := probeOfRecord(t.vlog, kv, rp, nil)
				_, dup = segFindLocked(p, t.vlog, newSeg, &pk)
			}
			if !dup {
				ok = segInsertLocked(p, newMir, newSeg, rp, kv, false, t.seed)
			}
			unlockPair(p, newMir, newSeg, hb, hb2)
		}
		unlockPair(p, oldMir, oldSeg, hb, hb2)
		return ok
	}
}

// splitPublish is the split's only stop-the-world step, and it is short:
// every bucket lock of oldSeg is taken (excluding writers and spinning out
// optimistic readers), the finished sibling becomes durable with a single
// whole-segment flush+fence, the directory entries flip under dirMu
// (doubling first when the segment's depth has caught up with the global
// depth), oldSeg's metadata bumps together with the marker clear in one
// header persist, the moved records are swept with one persist per touched
// bucket, and the DRAM directory cache is written through — only then do
// the locks release. The stall this window causes is accumulated in
// splitStallNS.
func (t *Table) splitPublish(old, sib *segDesc, l uint8, pat uint64, sc *splitScan) error {
	p, oldSeg, newSeg := t.pool, old.seg, sib.seg
	oldMir := old.mir.Load()
	begin := time.Now()
	for i := 0; i < totalBuckets; i++ {
		lockBucket(p, oldMir, segBucket(oldSeg, i), i)
	}
	defer func() {
		for i := 0; i < totalBuckets; i++ {
			unlockBucket(p, oldMir, segBucket(oldSeg, i), i)
		}
		stall := time.Since(begin).Nanoseconds()
		t.splitStallNS.Add(stall)
		t.met.splitPublishStallNS.Record(stall)
	}()

	// All writers are excluded now (assists run under bucket locks), so the
	// sibling is finished and this one flush+fence replaces the per-record
	// persists of the old copy loop.
	segPersist(p, newSeg)
	if t.hookAfterSegPersist != nil {
		t.hookAfterSegPersist()
	}

	t.dirMu.Lock()
	defer t.dirMu.Unlock()

	dir := pmem.Addr(p.LoadU64(rootAddr.Add(rootOffDir)))
	g := dirDepth(p, dir)
	if l == g {
		newDir, err := t.alloc(dirSize(g + 1))
		if err != nil {
			t.splitRollback(old, sib) // nothing is published yet
			return err
		}
		dirInitDoubled(p, newDir, dir)
		p.StoreU64(rootAddr.Add(rootOffDir), uint64(newDir))
		p.Persist(rootAddr.Add(rootOffDir), 8)
		old, oldSize := dir, dirSize(g)
		t.em.Retire(func() { t.freePush(old, oldSize) })
		dir = newDir
		g++
		t.cacheDouble(newDir)
		t.fr.Record(obs.EvDirDouble, obs.TagNone, uint64(g), 0)
	}

	estart, span := dirCoverage(g, l, pat)
	half := span >> 1
	for i := estart + half; i < estart+span; i++ {
		dirStoreEntry(p, dir, i, newSeg)
		p.Persist(dirEntryAddr(dir, i), 8)
		if t.hookMidPublish != nil && i == estart+half {
			t.hookMidPublish()
		}
	}
	if t.hookAfterPublish != nil {
		t.hookAfterPublish()
	}
	t.fr.Record(obs.EvSplitPublish, obs.TagNone, uint64(oldSeg), uint64(newSeg))

	// Metadata bump and marker clear share the header line and persist
	// once. The directory already routes the moved half to the sibling, so
	// from here a crash rolls forward through recovery's directory-driven
	// reconciliation. The sibling link goes first: once the marker reads
	// clear the next split may claim oldSeg and hang its own sibling there.
	old.sib.Store(nil)
	p.StoreU64(oldSeg.Add(segOffSplit), 0)
	segSetMeta(p, oldMir, oldSeg, l+1, pat<<1)
	// Sweep by the scan's moved-slot bitmaps wherever the bucket's seqlock
	// version proves it unchanged since the scan (+1 is our own lock);
	// mutated buckets and the stash are re-scanned.
	for bi := 0; bi < totalBuckets; bi++ {
		sc.kvalid[bi] = bi < normalBuckets &&
			p.QuietLoadU64(segBucket(oldSeg, bi).Add(bkOffVersion)) == sc.ver[bi]+1
		if sc.kvalid[bi] {
			sc.known[bi] = sc.moved[bi]
		}
	}
	segSweepBatched(p, oldMir, oldSeg, t.seed, func(rp hashfn.Parts, _ pmem.KV) bool {
		return rp.DepthBit(l)
	}, sc.known[:], sc.kvalid[:], t.hookMidSweep)
	t.fr.Record(obs.EvSplitSweep, obs.TagNone, uint64(oldSeg), uint64(time.Since(begin).Nanoseconds()))
	// Write-through before the deferred bucket unlocks: once writers can
	// get past the locks, the cache already routes the moved half to
	// newSeg.
	t.cachePublishSplit(old, sib, l+1, estart, span)
	t.splits.Add(1)
	return nil
}

// splitSibling returns the sibling of an in-flight split of d's segment when
// that sibling claims the key's hash, or nil. The caller holds the key's
// bucket locks in the segment: a split cannot publish (which is what retires
// the marker) without those locks, so a non-nil sibling stays valid until
// they are released. The marker shares the header line lockOwner's claim
// check paid for; the sibling's claim costs one read of its own header line.
// The link is stored before the marker, so a marker without its link is one
// a rollback already cleared: that sibling is leaked and needs no assist.
func (t *Table) splitSibling(d *segDesc, parts hashfn.Parts) *segDesc {
	st := segSplitState(t.pool, d.seg)
	if st&splitStateInFlight == 0 {
		return nil
	}
	sib := d.sib.Load()
	if sib == nil || sib.seg != splitStateSibling(st) || !segClaims(t.pool, sib.seg, parts) {
		return nil
	}
	return sib
}

// assistInsert mirrors a fresh insert into the unpublished sibling of an
// in-flight split, under the sibling's bucket-pair locks (always acquired
// after the old segment's — the same two-level order the migrator uses).
// Reports false when the sibling cannot absorb the copy, i.e. the split is
// overflowing pathologically. Durability is deferred to the publish's
// whole-segment persist, like every pre-publish sibling write.
func (t *Table) assistInsert(sd *segDesc, pk *probeKey, kv pmem.KV) bool {
	// Count before touching the sibling: the migrator reads the counter
	// under bucket locks ordered after this store, so a nonzero delta is
	// visible before any duplicate can be.
	t.splitAssists.Add(1)
	p, sib, sibMir := t.pool, sd.seg, sd.mir.Load()
	b, b2 := homePair(pk.parts)
	lockPair(p, sibMir, sib, b, b2)
	// The key is fresh table-wide, but its sibling copy may already exist:
	// if this insert reused a source slot the migration scan captured under
	// the same key (delete + reinsert ABA), the migrator's locked re-verify
	// cannot tell old from new and may have copied it before our counter
	// bump reached its duplicate gate. Both races resolve through this pair
	// lock's handoff: whichever of us inserts first, the other's probe sees
	// it here — so probe before inserting.
	ok := true
	if _, dup := segFindLocked(p, t.vlog, sib, pk); !dup {
		ok = segInsertLocked(p, sibMir, sib, pk.parts, kv, false, t.seed)
	}
	unlockPair(p, sibMir, sib, b, b2)
	return ok
}

// assistDelete mirrors a delete into the sibling of an in-flight split: if
// the migrator already copied the record, the copy must die too or the key
// would resurrect when the split publishes.
func (t *Table) assistDelete(sd *segDesc, pk *probeKey) {
	p, sib, sibMir := t.pool, sd.seg, sd.mir.Load()
	b, b2 := homePair(pk.parts)
	lockPair(p, sibMir, sib, b, b2)
	if loc, found := segFindLocked(p, t.vlog, sib, pk); found {
		segDeleteAt(p, sibMir, sib, pk.parts, loc, true, false)
	}
	unlockPair(p, sibMir, sib, b, b2)
}

// assistOverwrite mirrors a record overwrite into the sibling of an in-flight
// split, so an already-migrated copy does not revive the old value at
// publish: the copy's record words are overwritten with kv (for an inline
// update that is just the value word; for a copy-on-write update it is the
// new blob's word 0, word 1 — the hash — being unchanged). A copy the
// migrator has not made yet needs nothing after a plain update (insert =
// false): the migrator copies the record's *current* words under the home
// bucket's lock, and its sibling critical section serializes with this one.
// A representation conversion (insert = true) inserts the converted record
// instead: the migrator will then skip the old slot, whose word 0 no longer
// matches its scan, or dedupe against this copy through the assist counter's
// gate. Reports false when the sibling cannot absorb that insert.
func (t *Table) assistOverwrite(sd *segDesc, pk *probeKey, kv pmem.KV, insert bool) bool {
	if insert {
		t.splitAssists.Add(1) // before touching the sibling, like assistInsert
	}
	p, sib, sibMir := t.pool, sd.seg, sd.mir.Load()
	b, b2 := homePair(pk.parts)
	lockPair(p, sibMir, sib, b, b2)
	ok := true
	if loc, found := segFindLocked(p, t.vlog, sib, pk); found {
		ra := recordAddr(segBucket(sib, loc.bucket), loc.slot)
		p.StoreU64(ra.Add(8), kv.Value)
		p.StoreU64(ra, kv.Key)
		if sibMir != nil {
			sibMir.recWord(loc.bucket, loc.slot, 1).Store(kv.Value)
			sibMir.recWord(loc.bucket, loc.slot, 0).Store(kv.Key)
		}
	} else if insert {
		ok = segInsertLocked(p, sibMir, sib, pk.parts, kv, false, t.seed)
	}
	unlockPair(p, sibMir, sib, b, b2)
	return ok
}

// recoverLazy reconciles the table image with O(directory) work only. The
// directory is the source of truth: every segment's true coverage — and from
// it, its local depth and pattern — is re-derived by letting deeper segments
// claim their canonical entry ranges first. This completes a partially
// published split (the new segment was fully durable before the first entry
// flip) and rolls an unpublished one back to a harmless leak; version locks
// are reset and split markers cleared in the same per-segment pass (a small
// constant per segment, so still O(directory)). The O(data) work — record
// sweeps, dedupe, count derivation, mirror installs, the record-log sweep —
// is deferred: recoverLazy builds the lazyRecovery side table and returns.
// After a clean shutdown the image needs none of that reconciliation (the
// passes are cheap no-ops, run anyway for their validation) and the count
// comes straight from the root.
func (t *Table) recoverLazy(clean bool) error {
	p := t.pool
	rstart := obs.Now()
	dir := pmem.Addr(p.ReadU64(rootAddr.Add(rootOffDir)))
	if dir.IsNull() {
		return ErrNotATable
	}
	g := dirDepth(p, dir)
	n := uint64(1) << g

	type segInfo struct {
		addr pmem.Addr
		l    uint8
		pat  uint64
	}
	entries := make([]pmem.Addr, n)
	var segs []segInfo
	seen := make(map[pmem.Addr]bool)
	for i := uint64(0); i < n; i++ {
		e := dirLoadEntry(p, dir, i)
		entries[i] = e
		if e.IsNull() {
			return fmt.Errorf("core: recovery: null directory entry %d", i)
		}
		if !seen[e] {
			seen[e] = true
			l, pat := segMeta(p, e)
			if l > g {
				return fmt.Errorf("core: recovery: segment %#x deeper (%d) than directory (%d)", e, l, g)
			}
			segs = append(segs, segInfo{addr: e, l: l, pat: pat})
		}
	}

	// Deepest-first claiming: a new segment (depth L+1) takes its canonical
	// half before the stale old segment (still claiming depth L) takes the
	// remainder, which completes any half-flipped publish.
	sort.SliceStable(segs, func(i, j int) bool { return segs[i].l > segs[j].l })
	fixed := make([]pmem.Addr, n)
	for _, s := range segs {
		start, span := dirCoverage(g, s.l, s.pat)
		for i := start; i < start+span; i++ {
			if fixed[i].IsNull() {
				fixed[i] = s.addr
			}
		}
	}
	changed := false
	for i := uint64(0); i < n; i++ {
		if fixed[i].IsNull() {
			return fmt.Errorf("core: recovery: directory entry %d unclaimed", i)
		}
		if fixed[i] != entries[i] {
			dirStoreEntry(p, dir, i, fixed[i])
			changed = true
		}
	}
	if changed {
		p.Persist(dirEntryAddr(dir, 0), 8*n)
	}

	// Re-derive each segment's (depth, pattern) from its actual coverage and
	// reset every bucket's version lock. Coverage ranges are contiguous by
	// construction, so one pass over fixed collects first/count for every
	// segment.
	type cover struct{ first, count uint64 }
	covers := make(map[pmem.Addr]*cover, len(segs))
	for i := uint64(0); i < n; i++ {
		if c := covers[fixed[i]]; c != nil {
			c.count++
		} else {
			covers[fixed[i]] = &cover{first: i, count: 1}
		}
	}
	for _, s := range segs {
		first, count := uint64(0), uint64(0)
		if c := covers[s.addr]; c != nil {
			first, count = c.first, c.count
		}
		if count == 0 || count&(count-1) != 0 {
			return fmt.Errorf("core: recovery: segment %#x covers %d entries", s.addr, count)
		}
		l := g - uint8(bits.TrailingZeros64(count))
		pat := first >> (g - l)
		if l != s.l || pat != s.pat {
			segSetMeta(p, nil, s.addr, l, pat)
		}
		for i := 0; i < totalBuckets; i++ {
			p.StoreU64(segBucket(s.addr, i).Add(bkOffVersion), 0)
		}
		// Clear any split-progress marker, finishing or rolling back the
		// half-migrated split it describes. If the marker's sibling made it
		// into the directory, the claiming pass above already completed the
		// flips and metadata and the record sweeps below drop the moved
		// records' leftovers — the split rolls forward. Otherwise the
		// sibling was never published: the directory still routes every key
		// to this segment (which kept all its records; migration only
		// reads), so the marker clear rolls the split back and the sibling
		// block is leaked, like an unpublished block under the old
		// protocol.
		if p.LoadU64(s.addr.Add(segOffSplit)) != 0 {
			p.StoreU64(s.addr.Add(segOffSplit), 0)
			p.Persist(s.addr.Add(segOffSplit), 8)
		}
	}

	// Validate the record log's chunk chain and snapshot the sweep frontier
	// (O(#chunks)); the blob-level sweep itself is the background pass. Then
	// mirror the reconciled directory into the DRAM cache — the last
	// O(directory) step — and build the deferred-work side table.
	if clean {
		t.count.Store(int64(p.ReadU64(rootAddr.Add(rootOffCount))))
	}
	if err := t.vlog.RecoverChunks(); err != nil {
		return err
	}
	t.cacheRebuild()

	lr := &lazyRecovery{
		clean:  clean,
		g:      g,
		fixed:  fixed,
		openAt: rstart,
		order:  make([]*segDesc, 0, len(segs)),
		refs:   make(map[pmem.Addr]struct{}),
	}
	for _, s := range segs {
		d := t.cache.descs[s.addr]
		d.rec.Store(segRecPending)
		lr.order = append(lr.order, d)
	}
	lr.remaining.Store(int64(len(segs)))
	t.lazy.Store(lr)
	end := obs.Now()
	t.recordRecoveryPhase(phaseDir, obs.PhaseDirectory, rstart, end)
	t.met.recoveryOpenNS.Store(end - rstart)
	return nil
}

// dedupeSegment removes all but the first copy of any key appearing twice
// in the segment, comparing *canonical* keys (an inline record's 8-byte
// little-endian key, an indirect record's blob key bytes): an interrupted
// displacement duplicates a record verbatim, but an interrupted
// representation-converting update leaves the same user key once inline
// and once as a blob pointer. segSweep's scan order matches lookup order
// (normal buckets ascending, then stash), so the surviving copy is the one
// lookups would return. This is the one recovery pass that dereferences
// blobs — recovery is already O(data).
func (t *Table) dedupeSegment(seg pmem.Addr) {
	seenKeys := make(map[string]bool)
	var buf [8]byte
	segSweep(t.pool, seg, t.seed, func(_ hashfn.Parts, kv pmem.KV) bool {
		var k string
		if recIsIndirect(kv.Key) {
			k = string(t.vlog.KeyBytes(recBlobAddr(kv.Key)))
		} else {
			binary.LittleEndian.PutUint64(buf[:], kv.Key)
			k = string(buf[:])
		}
		if seenKeys[k] {
			return true
		}
		seenKeys[k] = true
		return false
	})
}

// sweepStashGhosts deletes stash records that no home bucket references:
// neither a tracking slot nor a positive overflow count points at them, so
// no lookup can ever see them and the slot would leak forever.
func (t *Table) sweepStashGhosts(seg pmem.Addr) {
	p := t.pool
	for j := 0; j < stashBuckets; j++ {
		sa := segBucket(seg, normalBuckets+j)
		m := p.LoadU64(sa.Add(bkOffMeta))
		for slot := 0; slot < slotsPerBucket; slot++ {
			if !metaSlotUsed(m, slot) {
				continue
			}
			parts := recSplitParts(p.ReadKV(recordAddr(sa, slot)), t.seed)
			home := segBucket(seg, int(parts.BucketIndex(bucketBits)))
			if findTrackedSlot(p, home, parts.FP, j) >= 0 {
				continue
			}
			if metaOvCount(p.QuietLoadU64(home.Add(bkOffMeta))) > 0 {
				continue
			}
			bucketDeleteLocked(p, nil, sa, normalBuckets+j, slot, true)
		}
	}
}
