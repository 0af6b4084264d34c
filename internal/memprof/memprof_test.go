package memprof

import (
	"slices"
	"strings"
	"testing"

	"github.com/imcstudy/imcstudy/internal/metrics"
	"github.com/imcstudy/imcstudy/internal/sim"
)

func TestTrackerPeaksAndSeries(t *testing.T) {
	e := sim.NewEngine()
	tr := NewTracker()
	reg := metrics.NewRegistry(e.Now)
	tr.Publish(reg, "sim-0")
	e.Spawn("worker", func(p *sim.Proc) error {
		tr.Alloc("sim-0", "compute", 100)
		if err := p.Sleep(1); err != nil {
			return err
		}
		tr.Alloc("sim-0", "staging", 250)
		if err := p.Sleep(1); err != nil {
			return err
		}
		tr.Free("sim-0", "staging", 250)
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	c := tr.Component("sim-0")
	if c.Peak() != 350 {
		t.Fatalf("Peak = %d, want 350", c.Peak())
	}
	if c.Current() != 100 {
		t.Fatalf("Current = %d, want 100", c.Current())
	}
	if c.PeakOf("staging") != 250 {
		t.Fatalf("PeakOf(staging) = %d, want 250", c.PeakOf("staging"))
	}
	series := reg.Series("mem/sim-0").Samples()
	if len(series) != 3 {
		t.Fatalf("series length = %d, want 3", len(series))
	}
	if series[1] != (metrics.Sample{T: 1, V: 350}) {
		t.Fatalf("series[1] = %+v, want {1 350}", series[1])
	}
}

func TestPeakMatching(t *testing.T) {
	tr := NewTracker()
	tr.Alloc("server-0", "staging", 100)
	tr.Alloc("server-1", "staging", 300)
	tr.Alloc("sim-0", "compute", 999)
	if got := tr.PeakMatching("server"); got != 400 {
		t.Fatalf("PeakMatching(server) = %d, want 400", got)
	}
	if got := tr.MaxPeakMatching("server"); got != 300 {
		t.Fatalf("MaxPeakMatching(server) = %d, want 300", got)
	}
}

func TestFreeBelowZeroClamps(t *testing.T) {
	tr := NewTracker()
	tr.Free("c", "k", 50)
	if got := tr.Component("c").Current(); got != 0 {
		t.Fatalf("Current = %d, want 0", got)
	}
}

func TestKindsSortedAndString(t *testing.T) {
	tr := NewTracker()
	tr.Alloc("c", "zeta", 10)
	tr.Alloc("c", "alpha", 10)
	kinds := tr.Component("c").Kinds()
	if len(kinds) != 2 || kinds[0] != "alpha" || kinds[1] != "zeta" {
		t.Fatalf("kinds = %v", kinds)
	}
	if tr.Component("c").CurrentOf("alpha") != 10 {
		t.Fatal("CurrentOf wrong")
	}
}

func TestSameInstantSamplesCoalesce(t *testing.T) {
	e := sim.NewEngine()
	tr := NewTracker()
	reg := metrics.NewRegistry(e.Now)
	tr.Publish(reg, "c")
	tr.Alloc("c", "k", 1)
	tr.Alloc("c", "k", 2)
	tr.Alloc("c", "k", 3)
	series := reg.Series("mem/c").Samples()
	if len(series) != 1 || series[0].V != 6 {
		t.Fatalf("series = %+v, want one coalesced sample of 6", series)
	}
}

// TestPublishMatchesTracker checks the registry tracks Publish produces
// against the tracker's own accounting: a published component's
// mem/<name> gauge and per-kind gauges agree with Current/Peak and
// CurrentOf/PeakOf after an alloc/free sequence, its series holds the
// clamped running total after each change, and an unpublished component
// creates no instruments.
func TestPublishMatchesTracker(t *testing.T) {
	e := sim.NewEngine()
	tr := NewTracker()
	reg := metrics.NewRegistry(e.Now)
	tr.Alloc("server-0", "base", 10) // before Publish: not replayed
	tr.Publish(reg, "server-", "sim-0")
	steps := []struct {
		comp, kind string
		n          int64
	}{
		{"server-1", "base", 100}, {"server-1", "staging", 400},
		{"sim-0", "compute", 50}, {"ana-0", "compute", 70},
		{"server-1", "index", 30}, {"server-1", "staging", -400},
		{"server-0", "base", 5}, {"server-1", "staging", 250},
		{"sim-0", "compute", -80}, {"server-1", "index", -30},
	}
	e.Spawn("worker", func(p *sim.Proc) error {
		for _, s := range steps {
			if s.n > 0 {
				tr.Alloc(s.comp, s.kind, s.n)
			} else {
				tr.Free(s.comp, s.kind, -s.n)
			}
			if err := p.Sleep(1); err != nil {
				return err
			}
		}
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Step i happens at virtual time i; a total never drops below zero.
	wantSeries := make(map[string][]metrics.Sample)
	cur := map[string]int64{"server-0": 10}
	for i, s := range steps {
		cur[s.comp] = max(cur[s.comp]+s.n, 0)
		wantSeries[s.comp] = append(wantSeries[s.comp], metrics.Sample{T: float64(i), V: float64(cur[s.comp])})
	}
	snap := reg.Snapshot()
	for _, name := range []string{"server-1", "sim-0"} {
		c := tr.Component(name)
		g := snap.Gauges["mem/"+name]
		if g.Value != float64(c.Current()) || g.Peak != float64(c.Peak()) {
			t.Errorf("mem/%s = %+v, tracker current %d peak %d", name, g, c.Current(), c.Peak())
		}
		for _, kind := range c.Kinds() {
			g := snap.Gauges["mem/"+name+"/"+kind]
			if g.Value != float64(c.CurrentOf(kind)) || g.Peak != float64(c.PeakOf(kind)) {
				t.Errorf("mem/%s/%s = %+v, tracker current %d peak %d",
					name, kind, g, c.CurrentOf(kind), c.PeakOf(kind))
			}
		}
		if got, want := snap.Series["mem/"+name], wantSeries[name]; !slices.Equal(got, want) {
			t.Fatalf("mem/%s series %v, want %v", name, got, want)
		}
	}
	// server-0 allocated before Publish: its gauge holds the absolute
	// value, but the series starts at the first change after Publish.
	if g, s := snap.Gauges["mem/server-0"], snap.Series["mem/server-0"]; g.Value != 15 || len(s) != 1 {
		t.Errorf("mem/server-0 = %+v with series %v, want 15 and one sample", g, s)
	}
	for name := range snap.Gauges {
		if strings.HasPrefix(name, "mem/ana-0") {
			t.Errorf("unpublished component ana-0 created gauge %s", name)
		}
	}
	for name := range snap.Series {
		if strings.HasPrefix(name, "mem/ana-0") {
			t.Errorf("unpublished component ana-0 created series %s", name)
		}
	}
	if len(snap.Counters) != 0 || len(snap.Histograms) != 0 {
		t.Errorf("Publish created counters %v or histograms %v", snap.Counters, snap.Histograms)
	}
}

// TestPublishNilRegistry pins the disabled path: publishing to a nil
// registry records nothing and leaves the tracker's accounting intact.
func TestPublishNilRegistry(t *testing.T) {
	tr := NewTracker()
	tr.Publish(nil, "c")
	tr.Alloc("c", "k", 10)
	tr.Free("c", "k", 4)
	if c := tr.Component("c"); c.Current() != 6 || c.Peak() != 10 {
		t.Fatalf("current %d peak %d, want 6 and 10", c.Current(), c.Peak())
	}
}
