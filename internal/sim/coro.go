//go:build go1.23 && !race

package sim

import "iter"

// handoff runs a process as an iter.Pull coroutine: a switch in either
// direction goes straight to the other side's stack, without the Go
// scheduler.
type handoff struct {
	next    func() (struct{}, bool)
	suspend func(struct{}) bool
}

// start makes body the process's coroutine; it first runs at switchTo.
func (p *Proc) start(body func()) {
	p.next, _ = iter.Pull(func(suspend func(struct{}) bool) {
		p.suspend = suspend
		body()
	})
}

// switchTo runs the process until it calls switchBack or finishes. A
// process that calls runtime.Goexit ends the caller's goroutine too.
func (p *Proc) switchTo() { p.next() }

// switchBack returns control to the engine until the next switchTo.
func (p *Proc) switchBack() { p.suspend(struct{}{}) }
