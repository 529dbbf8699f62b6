//go:build amd64 || arm64

package obs

// getg returns the address of the calling goroutine's runtime descriptor,
// which the runtime keeps in a register or thread-local slot: the same at
// every call depth, across stack moves, for the goroutine's whole life.
func getg() uintptr
