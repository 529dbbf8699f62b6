package core

import (
	"errors"

	"dash/internal/obs"
)

// Observability wiring: every Table owns an obs.Registry (named meters) and
// an obs.Flight (event recorder). The meters are always on — the hot-path
// cost is a goroutine-sharded counter add. The recorder's control lane takes
// every structural event; its op lane takes a 1-in-opSamplePeriod sample of
// operations plus every operation with a rare diagnostic outcome (opEnd).
// initObs is the single place a meter name exists, so the registry is the
// authoritative list of what the engine measures; the BENCH row carries the
// registry as it is, and Stats() reads these same counters rather than
// keeping parallel state.

// opSamplePeriod is the op lane's sampling period. The sample is chosen by
// key-hash bits 32..37 — disjoint from the fingerprint and bucket bits and,
// below global depth 26, from the directory bits — so choosing writes no
// shared state and the sampled keys span every bucket and segment. A key is
// thus traced on every operation or on none.
const opSamplePeriod = 64

// opSpan carries an operation's sampling decision and, if sampled, its start
// time from opBegin to opEnd. Its epoch guard rides in the probe key, entered
// only if the probe reads a blob (probeKey.pin).
type opSpan struct {
	start   int64
	sampled bool
}

// opBegin is every Table operation's prologue. An unsampled operation reads
// no clock and writes nothing; it hands the probe the table's epoch manager,
// so the probe can enter a guard should it meet a blob.
func (t *Table) opBegin(pk *probeKey) opSpan {
	pk.em = t.em
	var op opSpan
	if (pk.parts.Hash>>32)%opSamplePeriod == 0 {
		op.start, op.sampled = obs.Now(), true
	}
	return op
}

// opEnd is the matching epilogue: a sampled operation is recorded with its
// start time and duration, an unsampled one only if a post-mortem must not
// miss its outcome — a mutation that failed for a reason other than the
// key's presence — at completion, with duration 0. The guard, if the probe
// entered one, is released last: the caller is done with the record words.
func (t *Table) opEnd(op opSpan, pk *probeKey, ev obs.EventType, tag uint8) {
	if op.sampled {
		t.fr.RecordAt(op.start, ev, tag, pk.parts.Hash, uint64(obs.Now()-op.start))
	} else {
		switch tag {
		case obs.OutcomeOverflow, obs.OutcomeTooLarge, obs.OutcomeErr:
			t.fr.Record(ev, tag, pk.parts.Hash, 0)
		}
	}
	if pk.guard != 0 {
		t.em.ExitSlot(pk.guard - 1)
	}
}

// meters holds the obs handles the table's code paths record into (the
// layer-owned counters live on dirCache/segFilters/epoch.Manager/VarLog
// themselves; these are the table-level ones).
type meters struct {
	// Splits: how many completed, the cumulative wall time their publishes
	// held every bucket lock of their segment (the copy and any directory
	// doubling included), and the phase durations — migrate (the copy,
	// inside the publish) and the publish stall (the tail-latency window).
	splits              *obs.Counter
	splitStallNS        *obs.Counter
	splitMigrateNS      *obs.Histogram
	splitPublishStallNS *obs.Histogram

	// Where the table's inserts land (segInsertLocked), indexed
	// placedHome..placedStash.
	placed [placedKinds]*obs.Counter

	// Recovery phase wall times, indexed phaseDir..phaseMirrors; zero on a
	// freshly created table. phaseDir is added once by Open; the lazy
	// phases (segments/mirrors/log) accumulate as first-touch recoveries
	// and the background sweep run, converging to the eager totals, which
	// recoveryTotalNS adds once the sweep is done.
	recoveryNS      [4]*obs.Counter
	recoveryTotalNS *obs.Counter

	// Lazy-recovery meters: Open's O(directory) wall time (time-to-first-op),
	// the Open→sweep-done wall time (time-to-fully-recovered), each added
	// once, per-segment first-touch latencies, and counters for recovered
	// segments, blobs the background sweep free-listed and slots first touch
	// deleted as corrupt (recoverSegment).
	recoveryOpenNS *obs.Counter
	recoveryFullNS *obs.Counter
	lazySegNS      *obs.Histogram
	lazySegs       *obs.Counter
	lazySweepFreed *obs.Counter
	corruptSlots   *obs.Counter
}

const (
	phaseDir = iota
	phaseSegments
	phaseLog
	phaseMirrors
)

var phaseNames = [...]string{"directory", "segments", "log", "mirrors"}

var placedNames = [placedKinds]string{"home", "probe", "displaced", "stash"}

// initObs builds the registry and flight recorder and hands every layer its
// counters. Called by Create/Open after the pool, epoch manager and record
// log exist but before any operation (or recovery) runs.
func (t *Table) initObs() {
	reg := obs.NewRegistry()
	t.reg = reg
	t.fr = obs.NewFlight()

	// Directory-cache routing.
	t.cache.hits = reg.Counter("dircache.hits")
	t.cache.misses = reg.Counter("dircache.misses")

	// Per-segment filter mirrors.
	t.filters.hits = reg.Counter("segfilter.hits")
	t.filters.misses = reg.Counter("segfilter.misses")
	t.filters.stashProbes = reg.Counter("segfilter.stash_probes")
	reg.Gauge("segfilter.bytes", func() int64 { return int64(t.filters.bytes.Load()) })
	// The bucket locks live in the mirrors: acquisitions that had to wait.
	t.filters.lockContended = reg.Counter("bucket.lock_contended")

	// Splits: lifecycle counters and phase-duration histograms.
	t.met.splits = reg.Counter("split.completed")
	t.met.splitStallNS = reg.Counter("split.stall_ns")
	t.met.splitMigrateNS = reg.Histogram("split.migrate_ns")
	t.met.splitPublishStallNS = reg.Histogram("split.publish_stall_ns")

	// Inserts: where each record went.
	for where, name := range placedNames {
		t.met.placed[where] = reg.Counter("insert.placed." + name)
	}

	// Epoch reclamation: retire→free lag is the latency cost of a stalled
	// reader; pending is the space cost.
	t.em.Retired = reg.Counter("epoch.retired")
	t.em.Reclaimed = reg.Counter("epoch.reclaimed")
	t.em.ReclaimLagNS = reg.Histogram("epoch.reclaim_lag_ns")
	t.em.Trace = t.fr
	reg.Gauge("epoch.pending", func() int64 { return int64(t.em.Pending()) })

	// Record log: free-list hit rate plus the space accounting.
	t.vlog.FreeHits = reg.Counter("varlog.free_hits")
	t.vlog.FreeMisses = reg.Counter("varlog.free_misses")
	reg.Gauge("varlog.live_bytes", func() int64 { return int64(t.vlog.Stats().LiveBytes) })
	reg.Gauge("varlog.free_bytes", func() int64 { return int64(t.vlog.Stats().FreeBytes) })

	// Recovery phase wall times (Open only; zero after Create).
	for phase, name := range phaseNames {
		t.met.recoveryNS[phase] = reg.Counter("recovery." + name + "_ns")
	}
	t.met.recoveryTotalNS = reg.Counter("recovery.total_ns")

	// Lazy recovery: restart latency split into time-to-first-op (Open's
	// O(directory) work) and time-to-fully-recovered (background sweep
	// done), plus the first-touch machinery's own meters.
	t.met.recoveryOpenNS = reg.Counter("recovery.open_ns")
	t.met.recoveryFullNS = reg.Counter("recovery.full_ns")
	reg.Gauge("recovery.lazy.pending", func() int64 { return t.recoveryPending() })
	t.met.lazySegNS = reg.Histogram("recovery.lazy.seg_ns")
	t.met.lazySegs = reg.Counter("recovery.lazy.segments")
	t.met.lazySweepFreed = reg.Counter("recovery.lazy.sweep_freed")
	t.met.corruptSlots = reg.Counter("recovery.corrupt_slots")

	// Records held. (The table's shape — depth, segments — is Stats(); the
	// op lane's sample period is OpSamplePeriod.)
	reg.Gauge("table.count", func() int64 { return t.count.Load() })

	// PM traffic, alongside the engine meters.
	t.pool.RegisterMetrics(reg)
}

// Metrics returns the table's metrics registry — the one source of truth
// Stats(), the bench harness and the live endpoint (obs.Serve) all read.
func (t *Table) Metrics() *obs.Registry { return t.reg }

// OpSamplePeriod is the flight recorder's op-lane sampling period: the
// operations of one key in that many are recorded (obs.Serve's /trace says
// so).
func (t *Table) OpSamplePeriod() int { return opSamplePeriod }

// TraceSnapshot dumps the flight recorder: every retained event (sampled op
// completions, split lifecycle transitions, route repairs, epoch advances,
// recovery phases) merged across goroutine shards into one time-ordered log.
// Safe to call concurrently with live traffic; events overwritten mid-read
// are dropped, never torn.
func (t *Table) TraceSnapshot() []obs.Event { return t.fr.Snapshot() }

// recordRecoveryPhase adds one phase duration and logs it to the control
// lane, so a trace of a reopened table starts with its recovery timeline.
func (t *Table) recordRecoveryPhase(phase int, tag uint8, start, end int64) {
	t.met.recoveryNS[phase].Add(uint64(end - start))
	t.fr.RecordAt(start, obs.EvRecovery, tag, 0, uint64(end-start))
}

// readPath maps a read's result to its flight-recorder tag. Every answer
// searchOpt returns was served by a mirror, so the tag says only which kind.
func readPath(found bool) uint8 {
	if found {
		return obs.PathMirrorHit
	}
	return obs.PathMirrorNeg
}

// insOutcome maps an insert error to its flight-recorder tag.
func insOutcome(err error) uint8 {
	switch {
	case err == nil:
		return obs.OutcomeOK
	case errors.Is(err, ErrKeyExists):
		return obs.OutcomeExists
	case errors.Is(err, ErrSegmentOverflow):
		return obs.OutcomeOverflow
	case errors.Is(err, ErrRecordTooLarge):
		return obs.OutcomeTooLarge
	}
	return obs.OutcomeErr
}

// updOutcome maps an update (or, with a nil error, delete) result to its
// flight-recorder tag.
func updOutcome(found bool, err error) uint8 {
	if err != nil {
		return insOutcome(err)
	}
	if !found {
		return obs.OutcomeMissing
	}
	return obs.OutcomeOK
}
