//go:build !go1.23 && !race

package sim

// The engine runs processes as iter.Pull coroutines (coro.go), which need
// Go 1.23. On an older toolchain this undefined name is the first error
// reported: the file sorts first and type declarations are checked first.
type requiresGo123 sim_requires_go1_23_for_iter_Pull
