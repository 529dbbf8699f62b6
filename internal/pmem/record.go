package pmem

// Typed record helpers for fixed-size key/value pairs, the unit the Dash-EH
// bucket layer stores. A record is two native uint64 words; all accesses go
// through the atomic accessors so that optimistic lock-free readers racing a
// locked writer stay within the Go memory model (and clean under -race).

// RecordSize is the on-PM footprint of one KV record.
const RecordSize = 16

// KV is one fixed-size record: an 8-byte key and an 8-byte value.
type KV struct {
	Key   uint64
	Value uint64
}

// ReadKV atomically loads the record at a (16-aligned, so never straddling a
// cacheline): the key load pays for the record's line, the value word shares
// it and is read quietly — one charged read per record. The two word loads
// are individually atomic, not jointly; callers that need a consistent pair
// guard the read with a version check, as the bucket layer does.
func (p *Pool) ReadKV(a Addr) KV {
	return KV{Key: p.LoadU64(a), Value: p.QuietLoadU64(a.Add(8))}
}

// QuietReadKV is ReadKV without accounting, for sequential scans that
// charged the record's cacheline once via TouchRead (one-charge-per-line
// discipline; see quiet.go).
func (p *Pool) QuietReadKV(a Addr) KV {
	return KV{Key: p.QuietLoadU64(a), Value: p.QuietLoadU64(a.Add(8))}
}

// PersistKV flushes and fences the record at a.
func (p *Pool) PersistKV(a Addr) { p.Persist(a, RecordSize) }

// ReadKey atomically loads just the key word of the record at a, paying for
// its line; the value word can then be read quietly, as ReadKV does.
func (p *Pool) ReadKey(a Addr) uint64 { return p.LoadU64(a) }

// WriteValue atomically stores just the value word of the record at a, the
// in-place Update fast path.
func (p *Pool) WriteValue(a Addr, v uint64) { p.StoreU64(a.Add(8), v) }

// AlignUp rounds a up to the next multiple of align (a power of two).
func AlignUp(a Addr, align uint64) Addr {
	return Addr((uint64(a) + align - 1) &^ (align - 1))
}
