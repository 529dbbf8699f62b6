// Package core implements the Dash extendible hash table for persistent
// memory (Dash-EH, §4 of "Dash: Scalable Hashing on Persistent Memory",
// VLDB 2020) as a stack of four layers, each in its own file with a narrow
// interface onto the one below:
//
//	table.go     — public InsertB/GetB/DeleteB/UpdateB ([]byte) API and
//	               its uint64 view, Insert/Get/Delete/Update: a uint64 key
//	               is its 8-byte little-endian encoding, the mutators encode
//	               and call their []byte twins, and Get probes with the
//	               encoding but extracts a word; optimistic readers that
//	               take no lock and write no shared line and probe only the
//	               segment's DRAM mirror, writers on bucket version locks;
//	               Create/Open/Close, the allocator and routing. An
//	               operation enters an epoch.Manager guard only when its
//	               probe is about to read a blob (probeKey.pin).
//	split.go     — segment splits: the segment's owner mutex on its DRAM
//	               descriptor, a copy under the old segment's bucket locks
//	               that places each moved record into a sibling only the
//	               owner can reach, with no lock and no persist of its own,
//	               and the three-step crash-consistent publish. Writers are
//	               blind to it.
//	lazyrec.go   — recovery: Open's O(directory) reconcile, the per-segment
//	               first-touch gate every operation passes (Table.mirror),
//	               the background driver and the record-log sweep.
//	record.go    — the slot-word contract: a bucket slot holds either an
//	               inline 8B/8B record or a packed pointer (blob address |
//	               key-length class, full key hash) into the pmem.VarLog,
//	               discriminated by one bit; all routing reads record words
//	               only, so resizes never touch blob bytes.
//	directory.go — extendible-hashing directory: global depth + 2^depth
//	               segment pointers indexed by the hash's MSBs, doubled via
//	               an atomic root-pointer flip. The PM block is the
//	               crash-consistent source of truth only; a running table
//	               routes through dircache.go and only stores here.
//	dircache.go  — DRAM-resident mirror of the directory: global depth and,
//	               per entry, a pointer to the segment's descriptor (PM
//	               address, owner mutex, filter mirror), so one load routes
//	               an operation and hands it everything DRAM knows about
//	               the segment. The runtime truth of routing: kept exact by
//	               write-through from splits and doublings, a stale route
//	               repaired from it, never from PM, and rebuilt in
//	               O(directory) on Open.
//	segfilter.go — the same selective-persistence pattern one layer down:
//	               a DRAM mirror per segment (the header claim and, per
//	               bucket, the version lock, bitmaps, fingerprints and
//	               record words), reached through the segment's descriptor.
//	               It is the runtime truth: the one probe readers and
//	               writers share runs there, a writer's lock, claim check
//	               and placement decisions read it, and PM only takes the
//	               stores — written through by every mutator and rebuilt
//	               from the image on Open.
//	verify.go    — Table.Verify, the table's one invariant checker; its doc
//	               comment is the list of what DRAM and PM must agree on.
//	segment.go   — fixed arrays of 64 normal + 2 stash buckets, in PM a
//	               header line and then every bucket's records back to
//	               back; balanced insert across a bucket pair, displacement
//	               into neighbors, stash overflow counted in the home
//	               bucket's mirror.
//	bucket.go    — buckets of 14 records, 224 bytes in PM, with one-byte
//	               fingerprints (in the mirror) probed before any key
//	               dereference; slotAddr, the one function that knows where
//	               a record lives; a record's own non-zero word 0 is its
//	               commit point, PM keeps no bitmap. The bucket's seqlock
//	               version lock, which lives in the mirror, and the mutators.
//	stats.go     — lock-free TableStats snapshot: the shape walk (count,
//	               depth, segments, load factor, stash share, allocated
//	               bytes), plus meter readings the repo benchmark reads by
//	               field name.
//	obs.go       — the observability wiring: every table owns an
//	               obs.Registry naming its meters (dircache.*, segfilter.*,
//	               split.*, epoch.*, varlog.*, recovery.*, pmem.*) and an
//	               obs.Flight recording every split lifecycle transition,
//	               route repair, epoch advance and recovery phase, and —
//	               through the op prologue/epilogue (opBegin/opEnd:
//	               sampling decision, clock reads, and the release of the
//	               epoch guard if the probe entered one) that five sites
//	               share — Get, GetBAppend, InsertB, UpdateB, DeleteB — a
//	               1-in-64 key-hash sample of op completions with their
//	               serving path, plus every rare diagnostic outcome;
//	               Metrics()/TraceSnapshot() expose both, and obs.Serve
//	               puts them on HTTP. Each op's route is metered once: a
//	               read's in segfilter.*, a writer's in dircache.*.
//
// Everything persistent is addressed by pmem.Pool offsets, so the whole
// structure survives pmem's simulated power loss (Pool.Crash) and reopens
// from the durable media image via Open; the directory cache and the
// per-segment filter mirrors are the deliberately DRAM-only pieces,
// reconstructible state kept out of the persistence domain (Dash's
// selective-persistence principle). The hash-bit contract shared by all
// layers —
// fingerprint from the low byte, bucket index from the next bits, directory
// index from the MSBs — lives in hashfn.Parts.
//
// The exported entry points are Create (format a pool) and Open (recover a
// crashed or cleanly closed image), both returning the public *Table.
package core
