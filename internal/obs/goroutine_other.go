//go:build !amd64 && !arm64

package obs

// getg is 0 where the goroutine's descriptor is not read (goroutine.go):
// every goroutine keys shard 0, which costs contention, never correctness.
// A stack-address key would let a store and its fence book on two pmem
// ledger shards.
func getg() uintptr { return 0 }
