//go:build amd64 || arm64

package pmem

import "dash/internal/obs"

// getg returns the address of the calling goroutine's runtime descriptor,
// which the runtime keeps in a register or thread-local slot: the same at
// every call depth, across stack moves, for the goroutine's whole life.
func getg() uintptr

// goShard keys the calling goroutine's carry-ledger shard by its
// descriptor. obs.GoShard, which keys by a stack address, puts a
// goroutine's store and its fence on different shards whenever their call
// depths straddle a KiB boundary, and the store's debt would then wait for
// another settle; the ledger needs the key of the goroutine itself.
func goShard() uint64 { return (uint64(getg()) * 0x9e3779b97f4a7c15 >> 32) % obs.Shards }
