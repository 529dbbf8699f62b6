package pmem

// RecordSize is the on-PM footprint of one KV record, the unit the Dash-EH
// bucket layer stores: two native uint64 words, 16-aligned, so a record
// never straddles a cacheline.
const RecordSize = 16

// KV is one fixed-size record: an 8-byte key and an 8-byte value.
type KV struct {
	Key   uint64
	Value uint64
}
