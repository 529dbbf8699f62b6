// Package core implements the Dash extendible hash table for persistent
// memory (Dash-EH, §4 of "Dash: Scalable Hashing on Persistent Memory",
// VLDB 2020) as a stack of four layers, each in its own file with a narrow
// interface onto the one below:
//
//	table.go     — public Insert/Get/Delete/Update (uint64) and
//	               InsertB/GetB/DeleteB/UpdateB ([]byte) APIs — two views of
//	               one keyspace; optimistic readers that take no lock and
//	               write no shared line (epoch.Manager guards) and probe
//	               only the segment's DRAM mirror, writers on bucket version
//	               locks; Create/Open/Close, the allocator and routing.
//	split.go     — segment splits: a per-segment CAS claim on the DRAM
//	               descriptor, a copy under the old segment's bucket locks
//	               into a sibling only the owner can reach, and the
//	               three-step crash-consistent publish. Writers are blind
//	               to it.
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
//	               address, split claim, filter mirror), so one load routes
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
//	segment.go   — fixed arrays of 64 normal + 2 stash buckets; balanced
//	               insert across a bucket pair, displacement into neighbors,
//	               stash overflow counted in the home bucket's mirror.
//	bucket.go    — 256-byte cacheline-aligned buckets of 14 records with
//	               one-byte fingerprints probed before any key dereference;
//	               a record's own non-zero word 0 is its commit point, PM
//	               keeps no bitmap. The bucket's seqlock version lock, which
//	               lives in the mirror, and the mutators.
//	stats.go     — lock-free TableStats snapshot: the shape walk (count,
//	               depth, segments, load factor, stash share, allocated
//	               bytes), plus meter readings the repo benchmark reads by
//	               field name.
//	obs.go       — the observability wiring: every table owns an
//	               obs.Registry naming its meters (dircache.*, segfilter.*,
//	               split.*, epoch.*, varlog.*, recovery.*, pmem.*) and an
//	               obs.Flight recording every split lifecycle transition,
//	               route repair, epoch advance and recovery phase, and —
//	               through the one op prologue/epilogue all eight share
//	               (opBegin/opEnd: epoch guard, sampling decision, clock
//	               reads) — a 1-in-64 key-hash sample of op completions
//	               with their serving path, plus every rare diagnostic
//	               outcome; Metrics()/TraceSnapshot() expose both, and
//	               obs.Serve puts them on HTTP.
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
