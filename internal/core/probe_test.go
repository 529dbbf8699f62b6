package core

import (
	"encoding/binary"

	"dash/internal/hashfn"
)

// probeU64 is the probe a uint64 key makes: its 8-byte little-endian
// encoding, which the table's uint64 operations hold on their stacks.
func (t *Table) probeU64(key uint64) probeKey {
	return t.probeBytes(binary.LittleEndian.AppendUint64(nil, key))
}

// parts is the hash parts of a uint64 key.
func (t *Table) parts(key uint64) hashfn.Parts {
	return hashfn.Split(hashfn.HashU64(key, t.seed))
}
