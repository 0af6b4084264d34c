package sim

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEngine()
	var end Time
	e.Spawn("sleeper", func(p *Proc) error {
		if err := p.Sleep(1.5); err != nil {
			return err
		}
		if err := p.Sleep(2.5); err != nil {
			return err
		}
		end = p.Now()
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !almostEq(end, 4.0, 1e-9) {
		t.Fatalf("end time = %v, want 4.0", end)
	}
}

func TestInterleavingDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var order []string
		for _, spec := range []struct {
			name string
			d    Time
		}{{"a", 3}, {"b", 1}, {"c", 2}, {"d", 1}} {
			spec := spec
			e.Spawn(spec.name, func(p *Proc) error {
				if err := p.Sleep(spec.d); err != nil {
					return err
				}
				order = append(order, spec.name)
				return nil
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return order
	}
	want := []string{"b", "d", "c", "a"} // ties broken by spawn order
	for i := 0; i < 10; i++ {
		got := run()
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("iteration %d: order = %v, want %v", i, got, want)
			}
		}
	}
}

func TestEventWakesAllWaiters(t *testing.T) {
	e := NewEngine()
	ev := e.NewEvent()
	woke := 0
	for i := 0; i < 5; i++ {
		e.Spawn("waiter", func(p *Proc) error {
			v, err := p.Wait(ev)
			if err != nil {
				return err
			}
			if v.(int) != 42 {
				t.Errorf("event value = %v, want 42", v)
			}
			if !almostEq(p.Now(), 7, 1e-9) {
				t.Errorf("woke at %v, want 7", p.Now())
			}
			woke++
			return nil
		})
	}
	e.Spawn("firer", func(p *Proc) error {
		if err := p.Sleep(7); err != nil {
			return err
		}
		ev.Fire(42)
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if woke != 5 {
		t.Fatalf("woke = %d, want 5", woke)
	}
}

func TestWaitOnFiredEventReturnsImmediately(t *testing.T) {
	e := NewEngine()
	ev := e.NewEvent()
	ev.Fire("x")
	e.Spawn("p", func(p *Proc) error {
		v, err := p.Wait(ev)
		if err != nil {
			return err
		}
		if v.(string) != "x" {
			t.Errorf("value = %v", v)
		}
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine()
	ev := e.NewEvent()
	e.Spawn("stuck", func(p *Proc) error {
		_, err := p.Wait(ev)
		return err
	})
	err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run error = %v, want ErrDeadlock", err)
	}
}

func TestProcErrorPropagates(t *testing.T) {
	e := NewEngine()
	sentinel := errors.New("boom")
	e.Spawn("failing", func(p *Proc) error { return sentinel })
	err := e.Run()
	if !errors.Is(err, sentinel) {
		t.Fatalf("Run error = %v, want wrapped sentinel", err)
	}
}

func TestSpawnFromProc(t *testing.T) {
	e := NewEngine()
	var childEnd Time
	e.Spawn("parent", func(p *Proc) error {
		if err := p.Sleep(2); err != nil {
			return err
		}
		p.Engine().Spawn("child", func(c *Proc) error {
			if err := c.Sleep(3); err != nil {
				return err
			}
			childEnd = c.Now()
			return nil
		})
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !almostEq(childEnd, 5, 1e-9) {
		t.Fatalf("child end = %v, want 5", childEnd)
	}
}

func TestAtCallbackAndCancel(t *testing.T) {
	e := NewEngine()
	fired := []string{}
	e.At(3, func() { fired = append(fired, "kept") })
	h := e.At(2, func() { fired = append(fired, "canceled") })
	h.Cancel()
	h.Cancel()
	var zero Handle
	zero.Cancel()
	e.Spawn("p", func(p *Proc) error { return p.Sleep(5) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fired) != 1 || fired[0] != "kept" {
		t.Fatalf("fired = %v, want [kept]", fired)
	}
}

func TestDeadlineStopsRun(t *testing.T) {
	e := NewEngine()
	e.SetDeadline(10)
	e.Spawn("long", func(p *Proc) error { return p.Sleep(100) })
	err := e.Run()
	if err == nil {
		t.Fatal("Run: want deadline error, got nil")
	}
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("Run error = %v, want ErrDeadline", err)
	}
}

func TestDeadlineIsNotDeadlock(t *testing.T) {
	// Regression: a deadline-exceeded run used to fall through to the
	// live > 0 branch and spuriously report ErrDeadlock on top of the
	// deadline error, leaking the popped process's goroutine.
	e := NewEngine()
	e.SetDeadline(10)
	ev := e.NewEvent()
	e.Spawn("long", func(p *Proc) error { return p.Sleep(100) })
	e.Spawn("parked", func(p *Proc) error {
		_, err := p.Wait(ev)
		return err
	})
	err := e.Run()
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("Run error = %v, want ErrDeadline", err)
	}
	if errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run error = %v, spurious ErrDeadlock", err)
	}
	if e.live != 0 {
		t.Fatalf("live = %d after deadline abort, want 0", e.live)
	}
}

// TestGoexitInProcessEndsRun checks that a process calling runtime.Goexit
// (as t.FailNow does) does not wedge Run: the coroutine switch passes the
// Goexit on to Run's goroutine, which unwinds instead of waiting forever.
func TestGoexitInProcessEndsRun(t *testing.T) {
	done := make(chan struct{})
	returned := false
	go func() {
		defer close(done)
		e := NewEngine()
		e.Spawn("quitter", func(p *Proc) error {
			if err := p.Sleep(1); err != nil {
				return err
			}
			runtime.Goexit()
			return nil
		})
		_ = e.Run()
		returned = true
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run still blocked 5 s after a process called runtime.Goexit")
	}
	if returned {
		t.Fatal("Run returned normally; want the Goexit passed on to its goroutine")
	}
}

// TestRunLeaksNoGoroutines checks every way Run can end leaves no process
// behind: each case has processes queued, blocked and finished when the
// run stops, and the goroutine count must come back to where it started.
func TestRunLeaksNoGoroutines(t *testing.T) {
	boom := errors.New("boom")
	park := func(e *Engine, ev *Event) {
		e.Spawn("parked", func(p *Proc) error {
			_, err := p.Wait(ev)
			return err
		})
	}
	tick := func(e *Engine) {
		e.Spawn("ticker", func(p *Proc) error {
			for {
				if err := p.Sleep(0.5); err != nil {
					return err
				}
			}
		})
	}
	for _, tc := range []struct {
		name  string
		setup func(e *Engine)
		want  error
	}{
		{"clean", func(e *Engine) {
			ev := e.NewEvent()
			park(e, ev)
			e.Spawn("firer", func(p *Proc) error {
				if err := p.Sleep(2); err != nil {
					return err
				}
				ev.Fire(nil)
				return nil
			})
		}, nil},
		{"deadlock", func(e *Engine) {
			park(e, e.NewEvent())
			e.Spawn("sleeper", func(p *Proc) error { return p.Sleep(1) })
		}, ErrDeadlock},
		{"deadline", func(e *Engine) {
			e.SetDeadline(5)
			park(e, e.NewEvent())
			tick(e)
			e.Spawn("long", func(p *Proc) error { return p.Sleep(100) })
		}, ErrDeadline},
		{"stall", func(e *Engine) {
			e.SetStallHorizon(5)
			park(e, e.NewEvent())
			tick(e)
		}, ErrStalled},
		{"fail-fast", func(e *Engine) {
			park(e, e.NewEvent())
			tick(e)
			e.Spawn("failing", func(p *Proc) error {
				if err := p.Sleep(1); err != nil {
					return err
				}
				return boom
			})
		}, boom},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := NewEngine()
			tc.setup(e)
			err := e.Run()
			if !errors.Is(err, tc.want) {
				t.Fatalf("Run error = %v, want %v", err, tc.want)
			}
			settle := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(settle) {
				time.Sleep(time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("%d goroutines after Run, %d before", after, before)
			}
		})
	}
}

// TestEventWakesWaitersInWaitOrder checks that waiters wake in the order
// they waited, whether they sit in the first waiter's inline slot or in
// the list appended after it, and that the first waiter can wait on a
// second event afterwards.
func TestEventWakesWaitersInWaitOrder(t *testing.T) {
	e := NewEngine()
	first, second := e.NewEvent(), e.NewEvent()
	var order []int
	for i := 0; i < 3; i++ {
		e.Spawn("waiter", func(p *Proc) error {
			if _, err := p.Wait(first); err != nil {
				return err
			}
			order = append(order, i)
			if i == 0 {
				if _, err := p.Wait(second); err != nil {
					return err
				}
				order = append(order, 10)
			}
			return nil
		})
	}
	e.Spawn("firer", func(p *Proc) error {
		if err := p.Sleep(1); err != nil {
			return err
		}
		first.Fire(nil)
		if err := p.Sleep(1); err != nil {
			return err
		}
		second.Fire(nil)
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := []int{0, 1, 2, 10}; !slices.Equal(order, want) {
		t.Fatalf("wake order = %v, want %v", order, want)
	}
}

// TestEventHeapPopsInTimeThenSeqOrder pushes items with many equal
// times and pops between pushes, as the engine does, and checks that
// every pop returns the earliest pending item by (t, seq).
func TestEventHeapPopsInTimeThenSeqOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h eventHeap
	var pending []*schedItem // the reference: a plain list
	pop := func() {
		got := h.pop()
		want := slices.MinFunc(pending, cmpItems)
		if got != want {
			t.Fatalf("pop = (%v, %d), want (%v, %d)", got.t, got.seq, want.t, want.seq)
		}
		pending = slices.DeleteFunc(pending, func(it *schedItem) bool { return it == got })
	}
	for seq := int64(1); seq <= 500; seq++ {
		it := &schedItem{t: Time(rng.Intn(20)), seq: seq}
		h.push(it)
		pending = append(pending, it)
		if rng.Intn(3) == 0 {
			pop()
		}
	}
	for len(h) > 0 {
		pop()
	}
	if len(pending) != 0 {
		t.Fatalf("%d items left after the heap drained", len(pending))
	}
}

func cmpItems(a, b *schedItem) int {
	if before(a, b) {
		return -1
	}
	if before(b, a) {
		return 1
	}
	return 0
}
