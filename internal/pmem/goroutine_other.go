//go:build !amd64 && !arm64

package pmem

// goShard is 0 where the goroutine's descriptor is not read (goroutine.go):
// every goroutine books on one ledger shard. Keying by obs.GoShard instead
// would let a store and its fence at call depths a KiB apart book on two
// shards, and the store's debt wait for a settle that might never come;
// sharing one keeps every charge paid, by some goroutine's next settle.
func goShard() uint64 { return 0 }
