package sim

import (
	"errors"
	"fmt"
)

// ErrResourceExhausted is returned by TryAcquire (and by Acquire on
// resources configured to fail hard) when a request cannot be satisfied.
// It models synchronous allocation APIs, such as Cray uGNI RDMA memory
// registration, that fail rather than block when the resource is depleted.
var ErrResourceExhausted = errors.New("sim: resource exhausted")

// Resource is a counting semaphore with a FIFO wait queue, used to model
// bounded node resources: RDMA-registered memory, RDMA memory handlers,
// socket descriptors, server request slots, and DRC credential slots.
type Resource struct {
	e        *Engine
	name     string
	capacity int64
	used     int64
	peak     int64
	waiters  []*resWaiter

	waits     int64
	totalWait Time
	peakQueue int
	onChange  func(t Time, used int64, queued int)
}

type resWaiter struct {
	p *Proc
	n int64
}

// NewResource returns a resource with the given total capacity.
func (e *Engine) NewResource(name string, capacity int64) *Resource {
	return &Resource{e: e, name: name, capacity: capacity}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the configured capacity.
func (r *Resource) Capacity() int64 { return r.capacity }

// Used returns the amount currently held.
func (r *Resource) Used() int64 { return r.used }

// Peak returns the maximum amount ever held.
func (r *Resource) Peak() int64 { return r.peak }

// PeakQueue returns the maximum number of simultaneous waiters ever seen.
func (r *Resource) PeakQueue() int { return r.peakQueue }

// Waits returns how many Acquire calls had to block.
func (r *Resource) Waits() int64 { return r.waits }

// WaitTime returns the total virtual time Acquire callers spent blocked.
func (r *Resource) WaitTime() Time { return r.totalWait }

// SetObserver installs fn, called with the current virtual time whenever
// the held amount or the wait-queue depth changes. Telemetry uses this to
// build queue-depth counter tracks without the sim package knowing about
// the metrics registry. A nil fn removes the observer.
func (r *Resource) SetObserver(fn func(t Time, used int64, queued int)) { r.onChange = fn }

func (r *Resource) notify() {
	if r.onChange != nil {
		r.onChange(r.e.now, r.used, len(r.waiters))
	}
}

// TryAcquire takes n units immediately, or returns ErrResourceExhausted
// without blocking. Requests larger than the total capacity always fail.
func (r *Resource) TryAcquire(n int64) error {
	if n < 0 {
		return fmt.Errorf("sim: negative acquire %d on %s", n, r.name)
	}
	if r.used+n > r.capacity || len(r.waiters) > 0 {
		return fmt.Errorf("%w: %s (want %d, used %d of %d)",
			ErrResourceExhausted, r.name, n, r.used, r.capacity)
	}
	r.take(n)
	return nil
}

// Acquire blocks the calling process until n units are available, then
// takes them. Requests larger than the total capacity fail immediately.
func (p *Proc) Acquire(r *Resource, n int64) error {
	if n > r.capacity {
		return fmt.Errorf("%w: %s (want %d > capacity %d)",
			ErrResourceExhausted, r.name, n, r.capacity)
	}
	if len(r.waiters) == 0 && r.used+n <= r.capacity {
		r.take(n)
		return nil
	}
	r.waiters = append(r.waiters, &resWaiter{p: p, n: n})
	if len(r.waiters) > r.peakQueue {
		r.peakQueue = len(r.waiters)
	}
	r.waits++
	r.notify()
	t0 := r.e.now
	p.SetWaitLabel("resource " + r.name)
	if err := p.block(); err != nil {
		return err
	}
	r.totalWait += r.e.now - t0
	return nil
}

// Release returns n units and admits FIFO waiters that now fit.
func (r *Resource) Release(n int64) {
	r.used -= n
	if r.used < 0 {
		r.used = 0
	}
	for len(r.waiters) > 0 {
		w := r.waiters[0]
		if r.used+w.n > r.capacity {
			break
		}
		r.waiters = r.waiters[1:]
		r.take(w.n)
		r.e.unblock(w.p)
	}
	r.notify()
}

func (r *Resource) take(n int64) {
	r.used += n
	if r.used > r.peak {
		r.peak = r.used
	}
	r.notify()
}
