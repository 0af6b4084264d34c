package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/imcstudy/imcstudy/internal/metrics"
)

// flowScript is a seeded random schedule of flow arrivals and link
// degradation windows, replayable against any Net so the incremental and
// full-recompute modes can be compared bit-for-bit.
type flowScript struct {
	nLinks int
	rates  []float64
	flows  []scriptFlow
	tunes  []scriptTune
}

type scriptFlow struct {
	at      Time
	bytes   float64
	rateCap float64
	links   []int
}

type scriptTune struct {
	at     Time
	link   int
	factor float64 // applied to the link's base rate; 1 restores it
}

func makeFlowScript(seed int64, nLinks, nFlows, nTunes int) flowScript {
	rng := rand.New(rand.NewSource(seed))
	sc := flowScript{nLinks: nLinks}
	for i := 0; i < nLinks; i++ {
		sc.rates = append(sc.rates, 1e6*(1+9*rng.Float64()))
	}
	for i := 0; i < nFlows; i++ {
		f := scriptFlow{
			at:    10 * rng.Float64(),
			bytes: 1e3 + 1e7*rng.Float64(),
		}
		if rng.Intn(3) == 0 {
			f.rateCap = 1e5 + 1e6*rng.Float64()
		}
		seen := map[int]bool{}
		for j := 0; j < 1+rng.Intn(3); j++ {
			l := rng.Intn(nLinks)
			if seen[l] {
				continue
			}
			seen[l] = true
			f.links = append(f.links, l)
		}
		sc.flows = append(sc.flows, f)
	}
	for i := 0; i < nTunes; i++ {
		l := rng.Intn(nLinks)
		at := 10 * rng.Float64()
		dur := 0.1 + 2*rng.Float64()
		factor := 0.05 + 0.9*rng.Float64()
		sc.tunes = append(sc.tunes,
			scriptTune{at: at, link: l, factor: factor},
			scriptTune{at: at + dur, link: l, factor: 1})
	}
	return sc
}

// playback is what one replay of a script observed.
type playback struct {
	// log is a transcript of every observable: flow completion times,
	// and per-link aggregate rates after every recomputation, all
	// rendered as exact float64 bits.
	log []string
	// observed[i] is link i's utilization after every recomputation, as
	// the rate observer saw it; recorded[i] is the series link i
	// recorded itself through RecordUtilization.
	observed, recorded [][]metrics.Sample
}

// play runs the script with a utilization series attached to every link.
func (sc flowScript) play(t *testing.T, full bool) playback {
	t.Helper()
	e := NewEngine()
	n := e.NewNet()
	n.ForceFullRecompute(full)
	reg := metrics.NewRegistry(e.Now)
	links := make([]*Link, sc.nLinks)
	for i := range links {
		links[i] = n.NewLink(fmt.Sprintf("l%d", i), sc.rates[i])
		links[i].RecordUtilization(reg.Series(links[i].Name()))
	}
	var log []string
	observed := make([][]metrics.Sample, sc.nLinks)
	n.SetRateObserver(func(tm Time) {
		// Completions fire in n.flows order, so it must stay in seq
		// order.
		for i := 1; i < len(n.flows); i++ {
			if n.flows[i-1].seq >= n.flows[i].seq {
				t.Fatalf("t=%v: n.flows out of seq order at %d: %d then %d",
					tm, i, n.flows[i-1].seq, n.flows[i].seq)
			}
		}
		if err := checkLinkLists(n); err != nil {
			t.Fatalf("t=%v (full=%v): %v", tm, full, err)
		}
		if err := checkAllocation(n); err != nil {
			t.Fatalf("t=%v (full=%v): %v", tm, full, err)
		}
		line := fmt.Sprintf("rates %x", math.Float64bits(tm))
		for i, l := range links {
			line += fmt.Sprintf(" %x", math.Float64bits(l.CurrentRate()))
			observed[i] = append(observed[i], metrics.Sample{T: tm, V: l.Utilization()})
		}
		log = append(log, line)
	})
	for i, f := range sc.flows {
		i, f := i, f
		e.At(f.at, func() {
			ls := make([]*Link, len(f.links))
			for j, li := range f.links {
				ls[j] = links[li]
			}
			ev := n.StartFlowCapped(f.bytes, f.rateCap, ls...)
			e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) error {
				if _, err := p.Wait(ev); err != nil {
					return err
				}
				log = append(log, fmt.Sprintf("done %d %x", i, math.Float64bits(p.Now())))
				return nil
			})
		})
	}
	for _, tu := range sc.tunes {
		tu := tu
		e.At(tu.at, func() {
			n.SetLinkRate(links[tu.link], sc.rates[tu.link]*tu.factor)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("run (full=%v): %v", full, err)
	}
	pb := playback{log: log, observed: observed}
	for _, l := range links {
		pb.recorded = append(pb.recorded, reg.Series(l.Name()).Samples())
	}
	return pb
}

// checkLinkLists asserts the invariant fillRates reads flows by: after
// a flush every link's flow list is in non-decreasing seq order (a flow
// listing the link twice sits in two adjacent slots) and holds no
// retired flow.
func checkLinkLists(n *Net) error {
	for _, l := range n.links {
		for i, f := range l.flows {
			if f.retired {
				return fmt.Errorf("link %s holds retired flow seq %d", l.name, f.seq)
			}
			if i > 0 && l.flows[i-1].seq > f.seq {
				return fmt.Errorf("link %s out of seq order at %d: %d then %d",
					l.name, i, l.flows[i-1].seq, f.seq)
			}
		}
	}
	return nil
}

// allocTol is the relative tolerance of checkAllocation's comparisons.
const allocTol = 1e-9

// checkAllocation checks the current rates against the allocation the
// solver promises, computed from the flows alone:
//   - the rates through each link sum to at most its capacity;
//   - no flow exceeds its cap;
//   - every flow below its cap, stalled ones included, crosses a link
//     on which no flow gets a higher rate and whose capacity is used up
//     once each capped flow on it is counted at that rate.
//
// The last is max-min fairness with a flow's cap applied when its
// bottleneck fixes it: a capped flow claims the bottleneck's full fair
// share and uses only its cap, so the rest of that share stays idle. A
// stalled flow therefore needs a zero-capacity link.
func checkAllocation(n *Net) error {
	atCap := func(f *netFlow) bool { return f.rateCap > 0 && f.rate >= f.rateCap*(1-allocTol) }
	// Per link: the rates through it, the part of them from flows below
	// their cap, how many flows at their cap cross it, and the top rate.
	load := make([]float64, len(n.links))
	free := make([]float64, len(n.links))
	capped := make([]float64, len(n.links))
	top := make([]float64, len(n.links))
	for _, f := range n.flows {
		if f.rateCap > 0 && f.rate > f.rateCap*(1+allocTol) {
			return fmt.Errorf("flow seq %d: rate %v above its cap %v", f.seq, f.rate, f.rateCap)
		}
		for _, l := range f.links {
			load[l.id] += f.rate
			if atCap(f) {
				capped[l.id]++
			} else {
				free[l.id] += f.rate
			}
			top[l.id] = max(top[l.id], f.rate)
		}
	}
	for _, l := range n.links {
		if load[l.id] > l.rate*(1+allocTol) {
			return fmt.Errorf("link %s: flows sum to %v over capacity %v", l.name, load[l.id], l.rate)
		}
	}
	for _, f := range n.flows {
		if atCap(f) {
			continue
		}
		bottlenecked := false
		for _, l := range f.links {
			claimed := free[l.id] + capped[l.id]*f.rate
			if top[l.id] <= f.rate*(1+allocTol) && claimed >= l.rate*(1-allocTol) {
				bottlenecked = true
				break
			}
		}
		if !bottlenecked {
			return fmt.Errorf("flow seq %d (cap %v): rate %v, yet no link it crosses is saturated with it getting the most",
				f.seq, f.rateCap, f.rate)
		}
	}
	return nil
}

// sameTranscripts reports the first difference between two transcripts.
func sameTranscripts(full, inc []string) error {
	if len(full) != len(inc) {
		return fmt.Errorf("transcript lengths differ: full=%d incremental=%d", len(full), len(inc))
	}
	for i := range full {
		if full[i] != inc[i] {
			return fmt.Errorf("transcripts diverge at line %d:\nfull:        %s\nincremental: %s",
				i, full[i], inc[i])
		}
	}
	return nil
}

// TestIncrementalMatchesFullRecompute drives randomized flow
// arrival/departure sequences — including links degraded mid-flow — and
// asserts the incremental component-local rate assignment reproduces the
// exact full recomputation bit-for-bit: same per-link rates after every
// flush, same completion instants for every flow.
func TestIncrementalMatchesFullRecompute(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		sc := makeFlowScript(seed, 10, 150, 25)
		if err := sameTranscripts(sc.play(t, true).log, sc.play(t, false).log); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// decodeFlowScript turns fuzz bytes into a small flow script: up to 4
// links, up to 12 flows of one to three links (repeats allowed, so a
// flow may list a link twice), about a third of them capped, and up to 4
// degradation windows whose factor may be 0 (the link stalls until the
// window closes). Exhausted input reads as zeros.
func decodeFlowScript(data []byte) flowScript {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	sc := flowScript{nLinks: 1 + next()%4}
	for i := 0; i < sc.nLinks; i++ {
		sc.rates = append(sc.rates, 1e6*float64(1+next()%10))
	}
	nFlows := 1 + next()%12
	for i := 0; i < nFlows; i++ {
		f := scriptFlow{at: 0.25 * float64(next()%16), bytes: 1e3 + 4e4*float64(next())}
		if next()%3 == 0 {
			f.rateCap = 1e5 * float64(1+next()%20)
		}
		nl := 1 + next()%3
		for j := 0; j < nl; j++ {
			f.links = append(f.links, next()%sc.nLinks)
		}
		sc.flows = append(sc.flows, f)
	}
	nTunes := next() % 5
	for i := 0; i < nTunes; i++ {
		l := next() % sc.nLinks
		at := 0.25 * float64(next()%16)
		dur := 0.25 * float64(1+next()%8)
		factor := float64(next()%5) / 4
		sc.tunes = append(sc.tunes,
			scriptTune{at: at, link: l, factor: factor},
			scriptTune{at: at + dur, link: l, factor: 1})
	}
	return sc
}

// FuzzNetIncrementalMatchesFull replays fuzz-decoded flow scripts in
// both solver modes: the transcripts must be equal bit for bit, and play
// checks the link-list invariant and the allocation after every flush.
func FuzzNetIncrementalMatchesFull(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3, 7, 5, 0, 9, 0, 4, 1, 2, 3, 1, 200, 1, 5, 1, 0, 1, 2, 2, 3, 4, 0, 3, 0})
	f.Add([]byte{3, 0, 1, 2, 9, 11, 2, 50, 0, 7, 2, 1, 1, 3, 100, 1, 0, 0, 2, 2, 1, 0, 2, 2, 3, 1, 4, 1, 2, 3, 2, 1, 0, 5, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := decodeFlowScript(data)
		if err := sameTranscripts(sc.play(t, true).log, sc.play(t, false).log); err != nil {
			t.Fatal(err)
		}
	})
}

// changePoints reduces a per-recomputation utilization log to what a
// link's series must hold: the samples that differ from the previous
// value, starting from idle, with samples at one instant coalesced to
// the last.
func changePoints(obs []metrics.Sample) []metrics.Sample {
	var out []metrics.Sample
	last := 0.0
	for _, s := range obs {
		if s.V == last {
			continue
		}
		last = s.V
		if k := len(out); k > 0 && out[k-1].T == s.T {
			out[k-1].V = s.V
			continue
		}
		out = append(out, s)
	}
	return out
}

func sameSamples(a, b []metrics.Sample) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].T) != math.Float64bits(b[i].T) ||
			math.Float64bits(a[i].V) != math.Float64bits(b[i].V) {
			return false
		}
	}
	return true
}

// TestLinkSeriesRecordChangePoints replays the randomized scripts,
// degradation windows included, and checks the series each link records
// itself: in both solver modes it equals the rate observer's
// per-recomputation log reduced to change points, and the two modes
// record identical series.
func TestLinkSeriesRecordChangePoints(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		sc := makeFlowScript(seed, 10, 150, 25)
		full, inc := sc.play(t, true), sc.play(t, false)
		samples := 0
		for i := 0; i < sc.nLinks; i++ {
			for _, pb := range []struct {
				mode string
				playback
			}{{"full", full}, {"incremental", inc}} {
				if want := changePoints(pb.observed[i]); !sameSamples(pb.recorded[i], want) {
					t.Fatalf("seed %d link %d (%s): recorded %v, want change points %v",
						seed, i, pb.mode, pb.recorded[i], want)
				}
			}
			if !sameSamples(full.recorded[i], inc.recorded[i]) {
				t.Fatalf("seed %d link %d: full recorded %v, incremental %v",
					seed, i, full.recorded[i], inc.recorded[i])
			}
			if len(inc.observed[i]) <= len(inc.recorded[i]) {
				t.Fatalf("seed %d link %d: %d observations reduced to %d samples; the script should repeat values",
					seed, i, len(inc.observed[i]), len(inc.recorded[i]))
			}
			samples += len(inc.recorded[i])
		}
		if samples < 10*sc.nLinks {
			t.Fatalf("seed %d: only %d samples over %d links", seed, samples, sc.nLinks)
		}
	}
}

// TestSetLinkRateZeroFlows exercises the satellite boundary cases: a
// rate change on a link with no active flows, a rate of zero under
// active flows (they stall, then resume on restore), and a degradation
// window that opens and closes at the same instant.
func TestSetLinkRateZeroFlows(t *testing.T) {
	e := NewEngine()
	n := e.NewNet()
	idle := n.NewLink("idle", 1e6)
	busy := n.NewLink("busy", 1e6)

	// Rate set on a zero-flow link: must not panic or divide by zero,
	// and the link must report the new capacity with zero utilization.
	e.At(0.5, func() { n.SetLinkRate(idle, 2e6) })

	// Zero rate with an active flow: the flow stalls (no progress, no
	// spinning completion events) and finishes only after restoration.
	var doneAt Time
	e.Spawn("xfer", func(p *Proc) error {
		if err := p.Transfer(n, 1e6, busy); err != nil {
			return err
		}
		doneAt = p.Now()
		return nil
	})
	e.At(0.2, func() { n.SetLinkRate(busy, 0) })
	e.At(1.2, func() { n.SetLinkRate(busy, 1e6) })

	// Same-instant open/close: net effect must be the base rate.
	e.At(0.7, func() {
		n.SetLinkRate(busy, 0.1*1e6)
		n.SetLinkRate(busy, 0)
		n.SetLinkRate(busy, 1e6)
		n.SetLinkRate(busy, 0)
	})

	if err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if idle.Rate() != 2e6 || idle.CurrentRate() != 0 {
		t.Fatalf("idle link: rate=%g curRate=%g, want 2e6, 0", idle.Rate(), idle.CurrentRate())
	}
	// 0.2s at full rate moves 0.2e6 bytes; the remaining 0.8e6 bytes
	// move after the 1.2s restore: done at 1.2 + 0.8 = 2.0.
	if math.Abs(doneAt-2.0) > 1e-9 {
		t.Fatalf("stalled transfer finished at %g, want 2.0", doneAt)
	}
}

// scanFill is progressive filling as it was written before fillRates
// began reading each bottleneck's flows from the link's own list: for
// every bottleneck it scans all flows, in the order given, for the
// unfixed ones crossing that link. It is the oracle for the filling
// itself, which ForceFullRecompute cannot check because both of its
// modes call fillRates.
func scanFill(n *Net, flows []*netFlow) {
	active := n.active[:0]
	for _, f := range flows {
		f.fixed = false
		for _, l := range f.links {
			if n.count[l.id] == 0 {
				n.remCap[l.id] = l.rate
				active = append(active, l)
			}
			n.count[l.id]++
		}
	}
	unfixed := len(flows)
	for unfixed > 0 {
		best := -1
		bestShare := math.Inf(1)
		for _, l := range active {
			if n.count[l.id] == 0 {
				continue
			}
			share := n.remCap[l.id] / float64(n.count[l.id])
			if share < bestShare || (share == bestShare && (best < 0 || l.id < best)) {
				bestShare = share
				best = l.id
			}
		}
		if bestShare < 0 {
			bestShare = 0
		}
		for _, f := range flows {
			if f.fixed {
				continue
			}
			onBottleneck := false
			for _, l := range f.links {
				if l.id == best {
					onBottleneck = true
					break
				}
			}
			if !onBottleneck {
				continue
			}
			rate := bestShare
			if f.rateCap > 0 && f.rateCap < rate {
				rate = f.rateCap
			}
			f.rate = rate
			f.fixed = true
			unfixed--
			for _, l := range f.links {
				n.remCap[l.id] -= rate
				if n.remCap[l.id] < 0 {
					n.remCap[l.id] = 0
				}
				n.count[l.id]--
			}
		}
	}
	for _, l := range active {
		n.count[l.id] = 0
	}
	for _, f := range flows {
		for _, l := range f.links {
			l.curRate += f.rate
		}
	}
	n.active = active[:0]
}

// randomFlowSet builds a network holding a random set of active flows,
// never run: capped flows with different caps, flows listing one link
// twice, and zero-capacity links. A third of the flows are retired again
// through onCompletion and the flush's compaction, so the links' flow
// lists are as completions leave them.
func randomFlowSet(seed int64) *Net {
	rng := rand.New(rand.NewSource(seed))
	n := NewEngine().NewNet()
	nLinks := 2 + rng.Intn(12)
	links := make([]*Link, nLinks)
	for i := range links {
		rate := 1e6 * (1 + 9*rng.Float64())
		if rng.Intn(8) == 0 {
			rate = 0
		}
		links[i] = n.NewLink(fmt.Sprintf("l%d", i), rate)
	}
	nFlows := 1 + rng.Intn(60)
	for i := 0; i < nFlows; i++ {
		var rateCap float64
		if rng.Intn(2) == 0 {
			rateCap = 1e4 + 2e6*rng.Float64()
		}
		var ls []*Link
		for j := 0; j < 1+rng.Intn(3); j++ {
			ls = append(ls, links[rng.Intn(nLinks)])
		}
		if rng.Intn(6) == 0 {
			ls = append(ls, ls[0])
		}
		n.StartFlowCapped(1e6, rateCap, ls...)
	}
	for _, f := range n.flows {
		if rng.Intn(3) == 0 {
			f.remaining = 0
		}
	}
	n.onCompletion()
	n.compactDirtyLinks()
	return n
}

// TestFillMatchesScanOracle fills random flow sets with fillRates, given
// the flows in a seeded shuffle, and with the scan-every-flow oracle,
// given them in seq order, and asserts every flow's rate and every
// link's aggregate rate agree bit for bit: fillRates does not depend on
// the order of its input, which is what lets the incremental path hand
// it a component's flows in walk order.
func TestFillMatchesScanOracle(t *testing.T) {
	for seed := int64(1); seed <= 3000; seed++ {
		n := randomFlowSet(seed)
		shuffled := slices.Clone(n.flows)
		rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		n.fillRates(shuffled)
		rates := make([]uint64, len(n.flows))
		for i, f := range n.flows {
			rates[i] = math.Float64bits(f.rate)
		}
		cur := make([]uint64, len(n.links))
		for i, l := range n.links {
			cur[i] = math.Float64bits(l.curRate)
			l.curRate = 0
		}
		scanFill(n, n.flows)
		for i, f := range n.flows {
			if got := math.Float64bits(f.rate); got != rates[i] {
				t.Fatalf("seed %d flow seq %d: fillRates rate %v, oracle %v",
					seed, f.seq, math.Float64frombits(rates[i]), f.rate)
			}
		}
		for i, l := range n.links {
			if got := math.Float64bits(l.curRate); got != cur[i] {
				t.Fatalf("seed %d link %s: fillRates curRate %v, oracle %v",
					seed, l.name, math.Float64frombits(cur[i]), l.curRate)
			}
		}
	}
}
