package sim

// Event is a one-shot condition. Processes wait on it; once fired, every
// current and future waiter proceeds immediately and receives the value
// passed to Fire. Events belong to exactly one engine.
type Event struct {
	e       *Engine
	fired   bool
	val     any
	label   string
	waiters []*Proc
}

// NewEvent returns an unfired event bound to the engine.
func (e *Engine) NewEvent() *Event {
	return &Event{e: e}
}

// SetLabel names the event in stall and deadlock diagnostics; waiters show
// up as blocked on this label.
func (ev *Event) SetLabel(label string) { ev.label = label }

// Fired reports whether the event has been fired.
func (ev *Event) Fired() bool { return ev.fired }

// Value returns the value passed to Fire, or nil if unfired.
func (ev *Event) Value() any { return ev.val }

// Fire marks the event fired with the given value and wakes all waiters at
// the current virtual time. Firing an already-fired event is a no-op.
// Fire may be called from a process or from an engine callback.
func (ev *Event) Fire(val any) {
	if ev.fired {
		return
	}
	ev.fired = true
	ev.val = val
	for _, p := range ev.waiters {
		ev.e.unblock(p)
	}
	ev.waiters = nil
}

// Wait blocks the calling process until the event fires and returns the
// fired value. If the event already fired, Wait returns immediately.
func (p *Proc) Wait(ev *Event) (any, error) {
	if ev.fired {
		return ev.val, nil
	}
	if len(ev.waiters) == 0 {
		// The first waiter lists itself through its own one-slot array
		// (which always holds p), so the common single wait allocates
		// nothing; a second waiter's append copies it out.
		ev.waiters = p.self[:]
	} else {
		ev.waiters = append(ev.waiters, p)
	}
	if ev.label != "" {
		p.SetWaitLabel(ev.label)
	} else {
		p.SetWaitLabel("event")
	}
	if err := p.block(); err != nil {
		return nil, err
	}
	return ev.val, nil
}

// WaitAll blocks until every event in evs has fired.
func (p *Proc) WaitAll(evs ...*Event) error {
	for _, ev := range evs {
		if _, err := p.Wait(ev); err != nil {
			return err
		}
	}
	return nil
}
