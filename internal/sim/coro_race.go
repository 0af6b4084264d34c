//go:build race

package sim

import "runtime"

// handoff runs a process as a goroutine that trades the turn with the
// engine over two channels. Race-detector builds use it instead of the
// coroutine in coro.go: go1.24's race runtime never frees the state of an
// exited coroutine (about 100 KB for a busy one), so the larger test runs
// exhaust memory.
type handoff struct {
	wake, yielded chan struct{}
	goexited      bool
}

// start makes body the process's goroutine; it first runs at switchTo.
func (p *Proc) start(body func()) {
	p.wake, p.yielded = make(chan struct{}), make(chan struct{})
	go func() {
		<-p.wake
		returned := false
		defer func() {
			p.goexited = !returned
			p.yielded <- struct{}{}
		}()
		body()
		returned = true
	}()
}

// switchTo runs the process until it calls switchBack or finishes. A
// process that calls runtime.Goexit ends the caller's goroutine too, as a
// coroutine's would.
func (p *Proc) switchTo() {
	p.wake <- struct{}{}
	<-p.yielded
	if p.goexited {
		runtime.Goexit()
	}
}

// switchBack returns control to the engine until the next switchTo.
func (p *Proc) switchBack() {
	p.yielded <- struct{}{}
	<-p.wake
}
