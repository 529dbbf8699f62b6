// Package obstest drives a function from one goroutine at many call depths
// and across a stack move, for the tests that check that everything keyed
// by obs.GoShard stays on one shard per goroutine.
package obstest

import "unsafe"

// AtDepths runs f on one fresh goroutine at call depths 1..n below its
// entry, then forces a stack growth — a recursion of 4 KiB frames, far past
// a new goroutine's stack — and runs f at the same depths again. It returns
// when f has run 2n times, reporting whether the growth moved the stack.
func AtDepths(n int, f func(depth int)) (moved bool) {
	done := make(chan bool)
	go func() {
		before := descend(1, n, f)
		grow(64)
		done <- descend(1, n, f) != before
	}()
	return <-done
}

// descend runs f at depth d and recurses to depth n; it returns the stack
// address of depth d's frame.
//
//go:noinline
func descend(d, n int, f func(depth int)) uintptr {
	var local byte
	f(d)
	if d < n {
		descend(d+1, n, f)
	}
	return uintptr(unsafe.Pointer(&local))
}

// grow recurses n frames deep with 4 KiB of locals in each.
//
//go:noinline
func grow(n int) byte {
	var frame [4 << 10]byte
	frame[n] = byte(n)
	if n > 0 {
		frame[0] = grow(n - 1)
	}
	return frame[0] + frame[n]
}
