package sim

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"
)

func TestSingleFlowTransferTime(t *testing.T) {
	e := NewEngine()
	n := e.NewNet()
	l := n.NewLink("nic", 100) // 100 B/s
	var end Time
	e.Spawn("sender", func(p *Proc) error {
		if err := p.Transfer(n, 500, l); err != nil {
			return err
		}
		end = p.Now()
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !almostEq(end, 5, 1e-6) {
		t.Fatalf("end = %v, want 5", end)
	}
}

func TestFairSharingTwoFlows(t *testing.T) {
	// Two equal flows on one link: both complete at 2x the solo time.
	e := NewEngine()
	n := e.NewNet()
	l := n.NewLink("nic", 100)
	ends := make([]Time, 2)
	for i := 0; i < 2; i++ {
		i := i
		e.Spawn("s", func(p *Proc) error {
			if err := p.Transfer(n, 500, l); err != nil {
				return err
			}
			ends[i] = p.Now()
			return nil
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, end := range ends {
		if !almostEq(end, 10, 1e-6) {
			t.Fatalf("flow %d end = %v, want 10", i, end)
		}
	}
}

// TestSimultaneousCompletionsFireInSeqOrder finishes flows of two paths
// at one instant, the older path holding the first and last flow, and
// checks their events fire in arrival order, not path by path.
func TestSimultaneousCompletionsFireInSeqOrder(t *testing.T) {
	e := NewEngine()
	n := e.NewNet()
	a := n.NewLink("a", 100)
	b := n.NewLink("b", 100)
	// The two flows on b share it at 50 B/s; the one on a runs at 100.
	evs := []*Event{n.StartFlow(250, b), n.StartFlow(500, a), n.StartFlow(250, b)}
	var order []int
	for i, ev := range evs {
		i, ev := i, ev
		e.Spawn("w", func(p *Proc) error {
			if _, err := p.Wait(ev); err != nil {
				return err
			}
			if !almostEq(p.Now(), 5, 1e-9) {
				t.Errorf("flow %d done at %v, want 5", i, p.Now())
			}
			order = append(order, i)
			return nil
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !slices.Equal(order, []int{0, 1, 2}) {
		t.Fatalf("completions fired in order %v, want [0 1 2]", order)
	}
}

func TestNToOneSerializesOnReceiverLink(t *testing.T) {
	// N senders each with a fast private link, one shared receiver link:
	// the receiver link is the bottleneck, total time = N*size/rate.
	const nSenders = 8
	e := NewEngine()
	n := e.NewNet()
	recv := n.NewLink("recv", 100)
	var latest Time
	for i := 0; i < nSenders; i++ {
		src := n.NewLink("src", 1e6)
		e.Spawn("s", func(p *Proc) error {
			if err := p.Transfer(n, 100, src, recv); err != nil {
				return err
			}
			if p.Now() > latest {
				latest = p.Now()
			}
			return nil
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !almostEq(latest, 8, 1e-6) {
		t.Fatalf("latest = %v, want 8 (N-to-1 serialization)", latest)
	}
}

func TestNToNParallelism(t *testing.T) {
	// N disjoint sender/receiver pairs finish in the solo time.
	const pairs = 8
	e := NewEngine()
	n := e.NewNet()
	var latest Time
	for i := 0; i < pairs; i++ {
		src := n.NewLink("src", 100)
		dst := n.NewLink("dst", 100)
		e.Spawn("s", func(p *Proc) error {
			if err := p.Transfer(n, 100, src, dst); err != nil {
				return err
			}
			if p.Now() > latest {
				latest = p.Now()
			}
			return nil
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !almostEq(latest, 1, 1e-6) {
		t.Fatalf("latest = %v, want 1 (N-to-N parallelism)", latest)
	}
}

func TestStaggeredFlowsShareDynamically(t *testing.T) {
	// Flow A starts alone, flow B joins halfway; A slows down when B joins.
	e := NewEngine()
	n := e.NewNet()
	l := n.NewLink("nic", 100)
	var endA, endB Time
	e.Spawn("a", func(p *Proc) error {
		if err := p.Transfer(n, 1000, l); err != nil {
			return err
		}
		endA = p.Now()
		return nil
	})
	e.Spawn("b", func(p *Proc) error {
		if err := p.Sleep(5); err != nil {
			return err
		}
		if err := p.Transfer(n, 250, l); err != nil {
			return err
		}
		endB = p.Now()
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// A: 500 B alone in 5 s, then shares; B needs 250 B at 50 B/s = 5 s,
	// so B ends at 10. A then has 250 B left at full rate: ends at 12.5.
	if !almostEq(endB, 10, 1e-6) {
		t.Fatalf("endB = %v, want 10", endB)
	}
	if !almostEq(endA, 12.5, 1e-6) {
		t.Fatalf("endA = %v, want 12.5", endA)
	}
}

func TestBandwidthConservationProperty(t *testing.T) {
	// Property: for any set of concurrent same-start flows on one link,
	// the total completion time equals total bytes / link rate (work
	// conservation), and no flow finishes before its fair-share time.
	f := func(sizes []uint16) bool {
		var total float64
		var flows []float64
		for _, s := range sizes {
			if s == 0 {
				continue
			}
			flows = append(flows, float64(s))
			total += float64(s)
		}
		if len(flows) == 0 {
			return true
		}
		e := NewEngine()
		n := e.NewNet()
		l := n.NewLink("nic", 1000)
		var latest Time
		for _, sz := range flows {
			sz := sz
			e.Spawn("s", func(p *Proc) error {
				if err := p.Transfer(n, sz, l); err != nil {
					return err
				}
				if p.Now() > latest {
					latest = p.Now()
				}
				return nil
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		want := total / 1000
		return almostEq(latest, want, 1e-6*float64(len(flows))+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCappedFlowRate(t *testing.T) {
	// A capped flow cannot use the whole link even when alone.
	e := NewEngine()
	n := e.NewNet()
	l := n.NewLink("pool", 1000)
	var end Time
	e.Spawn("p", func(p *Proc) error {
		_, err := p.Wait(n.StartFlowCapped(500, 100, l))
		if err != nil {
			return err
		}
		end = p.Now()
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEq(end, 5, 1e-6) {
		t.Fatalf("end = %v, want 5 (capped at 100 B/s)", end)
	}
}

// TestLinklessFlowPanics: a flow of positive size with no links could
// never complete, so starting one panics, which the process surfaces as
// a PanicError instead of the run ending in a deadlock.
func TestLinklessFlowPanics(t *testing.T) {
	e := NewEngine()
	n := e.NewNet()
	e.Spawn("p", func(p *Proc) error {
		_, err := p.Wait(n.StartFlowCapped(100, 5))
		return err
	})
	err := e.Run()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run error = %v, want a PanicError", err)
	}
	if pe.Value != "sim: flow of 100 bytes with no links" {
		t.Fatalf("panic value = %v", pe.Value)
	}
	// Proc.Transfer still reports the same mistake as an error.
	e = NewEngine()
	n = e.NewNet()
	e.Spawn("p", func(p *Proc) error { return p.Transfer(n, 100) })
	if err := e.Run(); err == nil || errors.As(err, &pe) {
		t.Fatalf("Transfer with no links: Run error = %v, want a plain error", err)
	}
}

func TestCappedFlowsShareLeftover(t *testing.T) {
	// One capped and one uncapped flow: the uncapped one gets at least its
	// fair share of the link.
	e := NewEngine()
	n := e.NewNet()
	l := n.NewLink("pool", 1000)
	var cappedEnd, freeEnd Time
	e.Spawn("capped", func(p *Proc) error {
		_, err := p.Wait(n.StartFlowCapped(100, 100, l))
		cappedEnd = p.Now()
		return err
	})
	e.Spawn("free", func(p *Proc) error {
		if err := p.Transfer(n, 500, l); err != nil {
			return err
		}
		freeEnd = p.Now()
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if cappedEnd < 1-1e-6 {
		t.Fatalf("capped flow finished at %v, faster than its 100 B/s cap", cappedEnd)
	}
	if freeEnd > 1+1e-6 {
		t.Fatalf("free flow finished at %v, want <= 1 (at least fair share)", freeEnd)
	}
}

func TestFailFastAbortsSiblings(t *testing.T) {
	e := NewEngine()
	boom := errStrNet("boom")
	var sawAbort bool
	e.Spawn("failer", func(p *Proc) error {
		if err := p.Sleep(1); err != nil {
			return err
		}
		return boom
	})
	e.Spawn("longrunner", func(p *Proc) error {
		err := p.Sleep(100)
		if err != nil {
			sawAbort = true
		}
		return err
	})
	err := e.Run()
	if err == nil {
		t.Fatal("want error")
	}
	if !sawAbort {
		t.Fatal("sibling was not aborted on failure (fail-fast)")
	}
	if e.Now() > 1.5 {
		t.Fatalf("engine ran to %v after failure at 1", e.Now())
	}
}

func TestNoFailFastLetsSiblingsFinish(t *testing.T) {
	e := NewEngine()
	e.SetFailFast(false)
	boom := errStrNet("boom")
	finished := false
	e.Spawn("failer", func(p *Proc) error { return boom })
	e.Spawn("worker", func(p *Proc) error {
		if err := p.Sleep(5); err != nil {
			return err
		}
		finished = true
		return nil
	})
	if err := e.Run(); err == nil {
		t.Fatal("want the failer's error")
	}
	if !finished {
		t.Fatal("worker should finish with fail-fast off")
	}
}

type errStrNet string

func (e errStrNet) Error() string { return string(e) }
