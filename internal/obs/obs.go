// Package obs is the engine's observability layer: one place for the metrics
// and tracing machinery that was previously scattered, duplicated or missing
// across the other packages. The meters are always on; how much of the
// operation stream reaches the flight recorder is the recorder's caller's
// choice (core samples, and tells Serve the period). Three pieces:
//
//   - Counter and Histogram — lock-free, cacheline-sharded primitives cheap
//     enough for every hot path (a Counter increment is one uncontended
//     atomic add on a goroutine-private shard; a Histogram record is two).
//     The bench harness's clients record latency into Histograms too, so
//     engine-side and harness-side distributions share one layout (16
//     linear sub-buckets per octave) and one quantile walk.
//   - Registry — names the meters. Every layer registers its counters,
//     gauges and histograms under a dotted name ("dircache.hits",
//     "split.migrate_ns", ...); the live endpoint serves a Snapshot, and the
//     bench harness windows Snapshots (Sub) and sums them over tables (Add)
//     into its BENCH row.
//   - Flight — a fixed-size flight recorder of typed binary events in two
//     lanes: a control lane for the rare structural events (split lifecycle
//     transitions, route repairs, epoch advances, recovery phases), recorded
//     unconditionally, and a goroutine-sharded op lane for per-operation
//     completions with a path tag. Record and RecordAt never drop, but the
//     engine feeds the op lane a sample: two clock reads and a ring slot
//     were a third of a DRAM-served read. Recording takes no locks and
//     allocates only an op-lane shard's ring, on the shard's first event;
//     TraceSnapshot merges the rings into one time-ordered
//     log that turns a p999 outlier into a narrative.
//
// Serve exposes all of it (plus net/http/pprof) over HTTP for live
// introspection of a running table.
//
// All timestamps in this package are nanoseconds on one process-wide
// monotonic timeline (Now), so events from different components order
// correctly in a merged trace.
package obs

import (
	"sync/atomic"
	"time"
	"unsafe"
)

// epoch anchors the package timeline. Using one base for every component
// keeps all Event.TS values and duration math on a single monotonic clock.
var epoch = time.Now()

// Now returns nanoseconds since process start on the monotonic clock.
func Now() int64 { return int64(time.Since(epoch)) }

// Shards is the fan-out of Counter, of the flight recorder's op lane, of
// anything else keyed by GoShard, and of pmem's carry ledger. 64 cachelines of
// counter is 4KiB per Counter — cheap enough to register dozens, wide
// enough that a few dozen runnable goroutines rarely collide.
const Shards = 64

// GoShard keys a shard in [0, Shards) by the calling goroutine: the address
// of a stack local, pages apart for distinct goroutine stacks. Keying by
// goroutine rather than by the operation's key hash matters under skew —
// hash keying would re-converge every access to a hot key onto one
// cacheline, recreating exactly the cross-thread hotspot the sharding
// removes. A goroutine's shard is stable apart from stack moves and call
// depths a KiB apart, which only redistribute, never contend.
func GoShard() uint64 {
	var probe byte
	s := uint64(uintptr(unsafe.Pointer(&probe)))
	// Goroutine stacks are kibibytes apart; fold a few page-granular bits.
	return (s>>10 ^ s>>16) % Shards
}

// Counter is a cacheline-sharded event counter: increments spread over
// independent lines, reads sum the shards. The total is exact (per-shard
// atomics, monotone). The zero value is ready to use, and
// all methods are safe on a nil *Counter (no-ops reading zero), so optional
// meters cost exactly one predictable branch when absent.
type Counter struct {
	shards [Shards]counterShard
}

type counterShard struct {
	n atomic.Uint64
	_ [56]byte // pad to a cacheline
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n to the calling goroutine's shard.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.shards[GoShard()].n.Add(n)
}

// Total sums the shards. Exact at some instant during the call — the
// strongest guarantee lock-free accounting offers, and all a windowed
// measurement needs.
func (c *Counter) Total() uint64 {
	if c == nil {
		return 0
	}
	var t uint64
	for i := range c.shards {
		t += c.shards[i].n.Load()
	}
	return t
}
