// Package sim implements a deterministic discrete-event simulation engine.
//
// Processes are coroutines (iter.Pull) scheduled cooperatively against a
// virtual clock. Each process keeps its own goroutine stack, but the engine
// switches to it and back directly, without going through the Go scheduler
// (race-detector builds hand off over channels instead; see coro_race.go).
// Exactly one process executes at any instant, so simulations are
// deterministic and free of data races by construction. The engine provides
// three coordination primitives used by the rest of the testbed:
//
//   - Event: a one-shot condition processes can wait on,
//   - Resource: a counting semaphore with a FIFO wait queue (RDMA memory,
//     socket descriptors, server request slots, ...),
//   - Bandwidth: a processor-sharing link model (NICs, Lustre OSTs, ...).
//
// Virtual time is measured in float64 seconds from the start of the run.
package sim

import (
	"errors"
	"fmt"
	"math"

	"github.com/imcstudy/imcstudy/internal/prof"
)

// Time is a virtual-clock timestamp in seconds since the start of the run.
type Time = float64

// ErrAborted is returned from blocking calls when the engine is shut down
// while the calling process is blocked.
var ErrAborted = errors.New("sim: process aborted")

// ErrDeadlock is returned by Run when no events remain but live processes
// are still blocked.
var ErrDeadlock = errors.New("sim: deadlock: processes blocked with empty event queue")

// ErrDeadline is returned by Run when the virtual clock passes the deadline
// set with SetDeadline.
var ErrDeadline = errors.New("sim: virtual deadline exceeded")

type wakeMsg struct {
	aborted bool
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now   Time
	queue eventHeap
	seq   int64

	live     int
	blocked  map[*Proc]struct{}
	procs    []*Proc
	errs     []error
	failFast bool
	failed   bool

	// pool recycles schedItems: the hot path allocates one per event
	// otherwise. Reuse bumps seq, which Handle.Cancel checks so a stale
	// handle cannot touch a reused item.
	pool []*schedItem

	// prof, when non-nil, attributes wall time, event counts and
	// allocations per (component kind, event site); nil (the default)
	// keeps the hot path at one pointer check per event.
	prof *prof.Profiler

	// stallHorizon arms the no-progress watchdog (see SetStallHorizon);
	// lastProgress is the last virtual instant a process spawned, woke
	// from a block, or finished.
	stallHorizon Time
	lastProgress Time

	maxTime Time
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{
		blocked:  make(map[*Proc]struct{}),
		maxTime:  math.Inf(1),
		failFast: true,
	}
}

// SetFailFast controls whether the first process failure aborts the whole
// run (the default — an unhandled rank failure kills an MPI job). With
// fail-fast off, remaining processes keep running.
func (e *Engine) SetFailFast(on bool) { e.failFast = on }

// Now returns the current virtual time. It is safe to call from process
// functions and from engine callbacks.
func (e *Engine) Now() Time { return e.now }

// SetProfiler attaches a simulator self-profiler: every scheduled event
// is tagged with its scheduling site and every execution is attributed
// wall time and allocations (see internal/prof). A nil p (the default)
// disables profiling; the event loop then pays one nil check per event
// and the pooled schedItem path is unchanged.
func (e *Engine) SetProfiler(p *prof.Profiler) { e.prof = p }

// SetDeadline makes Run stop (with ErrDeadline wrapped into the run errors)
// once the virtual clock passes t. Zero or negative means no deadline.
func (e *Engine) SetDeadline(t Time) {
	if t <= 0 {
		e.maxTime = math.Inf(1)
		return
	}
	e.maxTime = t
}

// Proc is a handle to a simulated process. All blocking operations must be
// invoked from the process's own function.
type Proc struct {
	e    *Engine
	name string
	done bool
	err  error

	// handoff switches control between the engine and the process; msg
	// carries the engine's wake-up into the process.
	handoff
	msg wakeMsg

	// waitingOn and blockedSince describe the current block for stall and
	// deadlock diagnostics; wait sites (events, resources, gates) label
	// them via SetWaitLabel before parking.
	waitingOn    string
	blockedSince Time

	// self holds p: an event's first waiter list is self[:], with no
	// allocation (see Wait). Its capacity of one makes every append to
	// such a list copy, so nothing ever writes into it.
	self [1]*Proc
}

// SetWaitLabel names what the process is about to block on, so stall and
// deadlock diagnostics can point at the wedged gate or resource instead
// of just the process. The label clears automatically when the process
// wakes.
func (p *Proc) SetWaitLabel(label string) { p.waitingOn = label }

// Name returns the process name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.e }

// Spawn registers a new process that starts at the current virtual time.
// fn runs as a coroutine on its own goroutine stack; a non-nil returned
// error is collected and reported by Run. Spawn may be called before Run or
// from a running process.
func (e *Engine) Spawn(name string, fn func(p *Proc) error) *Proc {
	p := &Proc{e: e, name: name}
	p.self[0] = p
	e.live++
	e.lastProgress = e.now
	e.procs = append(e.procs, p)
	p.start(func() {
		if p.msg.aborted {
			p.err = ErrAborted
		} else {
			p.err = runProc(p, fn)
		}
		p.done = true
	})
	e.schedule(e.now, p, nil)
	return p
}

// runProc executes a process body, converting a panic into a structured
// error instead of tearing down the host: the deferred recover runs
// while the process still holds the engine's execution turn, so the
// coroutine finishes normally and the engine stays sane.
func runProc(p *Proc, fn func(p *Proc) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = RecoveredPanic("proc "+p.name, v)
		}
	}()
	return fn(p)
}

// schedule enqueues either a process wake-up or a callback at time t.
func (e *Engine) schedule(t Time, p *Proc, fn func()) *schedItem {
	if t < e.now {
		t = e.now
	}
	e.seq++
	var it *schedItem
	pooled := len(e.pool) > 0
	if pooled {
		n := len(e.pool)
		it = e.pool[n-1]
		e.pool[n-1] = nil
		e.pool = e.pool[:n-1]
		it.t, it.seq, it.proc, it.fn, it.canceled, it.site = t, e.seq, p, fn, false, 0
	} else {
		it = &schedItem{t: t, seq: e.seq, proc: p, fn: fn}
	}
	if e.prof != nil {
		it.site = e.prof.ScheduleSite()
		e.prof.Scheduled(pooled, len(e.queue)+1)
	}
	e.queue.push(it)
	return it
}

// recycle returns a consumed schedItem to the pool.
func (e *Engine) recycle(it *schedItem) {
	it.proc = nil
	it.fn = nil
	e.pool = append(e.pool, it)
}

// Handle cancels one callback scheduled with At; being a value, it costs
// no allocation. The zero Handle cancels nothing.
type Handle struct {
	it  *schedItem
	seq int64
}

// Cancel keeps the callback from running. It is a no-op once the
// callback has fired, even if its item was recycled for another event.
func (h Handle) Cancel() {
	if h.it != nil && h.it.seq == h.seq {
		h.it.canceled = true
	}
}

// At schedules fn to run in engine context (not as a process) at time t.
func (e *Engine) At(t Time, fn func()) Handle {
	it := e.schedule(t, nil, fn)
	return Handle{it, it.seq}
}

// resume switches to p and returns when it yields back or finishes.
func (e *Engine) resume(p *Proc, msg wakeMsg) {
	p.msg = msg
	p.switchTo()
	if p.done {
		e.live--
		e.lastProgress = e.now
		if p.err != nil && !errors.Is(p.err, ErrAborted) {
			e.errs = append(e.errs, fmt.Errorf("proc %s: %w", p.name, p.err))
			if e.failFast {
				e.failed = true
			}
		}
	}
}

// yield switches back to the engine and returns the message the engine
// wakes the process with. It must only be called from the process itself.
func (p *Proc) yield() wakeMsg {
	p.switchBack()
	return p.msg
}

// block parks the process with no scheduled wake-up; something else (an
// Event firing, a Resource release) must schedule it. Returns ErrAborted if
// the engine shut down while blocked.
func (p *Proc) block() error {
	p.blockedSince = p.e.now
	p.e.blocked[p] = struct{}{}
	msg := p.yield()
	p.waitingOn = ""
	if msg.aborted {
		return ErrAborted
	}
	return nil
}

// unblock schedules a wake-up for a process parked with block.
func (e *Engine) unblock(p *Proc) {
	if _, ok := e.blocked[p]; !ok {
		return
	}
	delete(e.blocked, p)
	e.lastProgress = e.now
	e.schedule(e.now, p, nil)
}

// Sleep advances the process's view of time by d seconds (d <= 0 yields
// without advancing the clock).
func (p *Proc) Sleep(d Time) error {
	if d < 0 {
		d = 0
	}
	p.e.schedule(p.e.now+d, p, nil)
	msg := p.yield()
	if msg.aborted {
		return ErrAborted
	}
	return nil
}

// Run executes the simulation until no events remain. It returns the
// combined error of all failed processes, ErrDeadline if the clock passed
// the SetDeadline time, ErrDeadlock if live processes remain blocked, or
// nil on a clean finish.
func (e *Engine) Run() error {
	deadlineHit := false
	for len(e.queue) > 0 {
		if e.failed {
			e.abortAll()
			break
		}
		it := e.queue.pop()
		if it.canceled {
			e.recycle(it)
			continue
		}
		if it.t > e.maxTime {
			deadlineHit = true
			e.errs = append(e.errs, fmt.Errorf("%w: %.3fs", ErrDeadline, e.maxTime))
			// The popped item is in neither the queue nor the blocked map;
			// abort its process here, or its coroutine stays suspended
			// forever (its goroutine leaks) and the run is misreported as
			// a deadlock.
			if it.proc != nil && !it.proc.done {
				e.resume(it.proc, wakeMsg{aborted: true})
			}
			e.abortAll()
			break
		}
		if e.stallHorizon > 0 && len(e.blocked) > 0 && it.t-e.lastProgress > e.stallHorizon {
			// The clock kept moving (self-rescheduling processes keep the
			// queue alive) but nothing blocked ever woke: the simulated
			// system is wedged. Fail with a structured diagnostic instead
			// of spinning; deadlineHit-style popped-item handling applies.
			deadlineHit = true
			e.errs = append(e.errs, &StallError{
				Now: it.t, LastProgress: e.lastProgress, Blocked: e.blockedSnapshot(),
			})
			if it.proc != nil && !it.proc.done {
				e.resume(it.proc, wakeMsg{aborted: true})
			}
			e.abortAll()
			break
		}
		e.now = it.t
		if it.proc != nil {
			p := it.proc
			site := it.site
			e.recycle(it)
			if p.done {
				continue
			}
			if e.prof == nil {
				e.resume(p, wakeMsg{})
			} else {
				tok := e.prof.BeginEvent(site, p.name, e.now, len(e.queue))
				e.resume(p, wakeMsg{})
				e.prof.EndEvent(tok)
			}
		} else {
			fn := it.fn
			site := it.site
			e.recycle(it)
			if e.prof == nil {
				fn()
			} else {
				tok := e.prof.BeginEvent(site, "", e.now, len(e.queue))
				fn()
				e.prof.EndEvent(tok)
			}
		}
	}
	if e.live > 0 && !deadlineHit {
		blocked := e.blockedSnapshot()
		e.abortAll()
		e.errs = append(e.errs, fmt.Errorf("%w: [%s]", ErrDeadlock, joinBlocked(blocked)))
	}
	return errors.Join(e.errs...)
}

// abortAll wakes every live process with an abort signal so its coroutine
// unwinds; used on deadlock and shutdown so Run leaks no goroutines.
func (e *Engine) abortAll() {
	// Drain scheduled wake-ups first so procs are not woken twice.
	for len(e.queue) > 0 {
		it := e.queue.pop()
		if it.canceled || it.proc == nil || it.proc.done {
			continue
		}
		delete(e.blocked, it.proc)
		e.resume(it.proc, wakeMsg{aborted: true})
	}
	// Wake the stragglers in spawn order, not map order, so teardown is
	// deterministic (abort handlers run user code that can record).
	for _, p := range e.procs {
		if _, ok := e.blocked[p]; !ok {
			continue
		}
		delete(e.blocked, p)
		if !p.done {
			e.resume(p, wakeMsg{aborted: true})
		}
	}
}

// schedItem is a pending wake-up or callback in the event queue.
type schedItem struct {
	t        Time
	seq      int64
	proc     *Proc
	fn       func()
	canceled bool
	// site is the profiler's interned scheduling-site id; 0 ("engine")
	// whenever no profiler is attached.
	site int32
}

// eventHeap is a binary min-heap of schedItems ordered by (t, seq).
// Every item has a distinct seq, so the order is total and the pop
// order does not depend on how the heap is laid out.
type eventHeap []*schedItem

// before reports whether a runs before b.
func before(a, b *schedItem) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// push adds it to the heap.
func (h *eventHeap) push(it *schedItem) {
	q := append(*h, it)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !before(it, q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = it
	*h = q
}

// pop removes and returns the earliest item; the heap must not be empty.
func (h *eventHeap) pop() *schedItem {
	q := *h
	n := len(q) - 1
	top, last := q[0], q[n]
	q[n] = nil
	q = q[:n]
	if n > 0 {
		// Sift last down from the root.
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && before(q[r], q[c]) {
				c = r
			}
			if !before(q[c], last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	*h = q
	return top
}
