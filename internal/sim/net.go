package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/imcstudy/imcstudy/internal/metrics"
)

// completionEps is the residual byte count below which a flow is complete;
// it absorbs float64 rounding in the processor-sharing integration.
const completionEps = 1e-3

// Link is a capacity-constrained bandwidth resource inside a Net: a NIC
// injection port, a Lustre OST, a shared-memory bus, and so on.
type Link struct {
	id   int
	name string
	rate float64 // bytes per second

	bytesMoved float64
	flowsEver  int64

	// flows is the set of active flows traversing this link in arrival
	// (seq) order, one entry per occurrence: a flow listing the link
	// twice sits in two adjacent slots. Retired flows stay until the
	// next flush compacts the list. The aggregate rate is summed from
	// it, and a bottleneck whose flows get different rates is fixed
	// from it in seq order.
	flows []*netFlow
	// paths lists the active paths crossing this link, one entry per
	// occurrence, in no particular order; capped counts the entries
	// with a rate cap. It is the node→active-paths index: SetLinkRate
	// and fault windows reach exactly the affected paths, and the
	// component walk and the filling run over it. A path emptied by
	// completions stays until the next flush compacts the list.
	paths  []*path
	capped int
	// dirty marks membership in Net.dirtyLinks; inComp is BFS scratch
	// for the incremental recomputation.
	dirty  bool
	inComp bool

	// series are the utilization tracks attached by RecordUtilization;
	// recorded is the utilization they last received (idle until then).
	series   []*metrics.Series
	recorded float64
}

// Name returns the link name.
func (l *Link) Name() string { return l.name }

// Rate returns the link capacity in bytes per second.
func (l *Link) Rate() float64 { return l.rate }

// BytesMoved returns the total bytes transferred through the link.
func (l *Link) BytesMoved() float64 { return l.bytesMoved }

// Flows returns the number of flows that have ever traversed the link.
func (l *Link) Flows() int64 { return l.flowsEver }

// CurrentRate returns the aggregate rate (bytes per second) assigned to
// the flows traversing the link at the current instant; zero when idle.
// It sums the flows' rates in arrival order on every call.
func (l *Link) CurrentRate() float64 {
	r := 0.0
	for _, f := range l.flows {
		if f.path != nil {
			r += f.path.rate
		}
	}
	return r
}

// Utilization returns CurrentRate as a fraction of capacity.
func (l *Link) Utilization() float64 {
	if l.rate <= 0 {
		return 0
	}
	return l.CurrentRate() / l.rate
}

// RecordUtilization attaches s to the link: from now on, every rate
// recomputation that re-rates the link and changes its utilization
// appends (now, Utilization()) to s, so s holds the change points from
// idle.
func (l *Link) RecordUtilization(s *metrics.Series) {
	l.series = append(l.series, s)
}

// record appends the link's utilization to its series when it differs
// from the value last recorded. Both solver modes call it for every
// re-rated link that has series; the check makes them record identical
// series, because the full recomputation re-rates links whose value did
// not move.
func (l *Link) record(t Time) {
	u := l.Utilization()
	if u == l.recorded {
		return
	}
	l.recorded = u
	for _, s := range l.series {
		s.Append(t, u)
	}
}

// Net is a max-min fair bandwidth-sharing network. Each flow traverses a
// set of links; flow rates are assigned by progressive filling (the
// bottleneck link's fair share caps every flow through it), which is what
// makes N writers targeting one staging server's NIC each receive 1/N of
// that NIC — the N-to-1 pathology at the heart of Finding 3.
//
// Flows with one link list and one rate cap always receive one rate, so
// the solver works on paths: a path holds those flows and their shared
// rate, and is filled, advanced and retired as one unit.
//
// Rate assignment is coalesced: any number of flow arrivals and
// completions at the same virtual instant trigger a single recomputation,
// which keeps large fan-outs (thousands of simultaneous puts) affordable.
type Net struct {
	e          *Engine
	links      []*Link
	paths      []*path
	flowSeq    int64
	lastT      Time
	cancelNext Handle
	dirty      bool

	// dirtyLinks accumulates the links whose flow set or capacity
	// changed since the last rate assignment; flush recomputes only the
	// connected components (links joined by shared paths) they touch.
	// forceFull disables the incremental path and recomputes the whole
	// network every flush — the exact-oracle mode property tests compare
	// against.
	dirtyLinks []*Link
	forceFull  bool

	// emptied reports that completions emptied a path since the last
	// flush; flush then frees the paths still empty onto free, which
	// StartFlowCapped draws from.
	emptied bool
	free    []*path

	// Scratch buffers for assignRates, indexed by link id.
	remCap []float64
	count  []int
	// Reused scratch for the component walk, the filling loop and the
	// completions.
	compLinks []*Link
	compPaths []*path
	active    []int
	finished  []*netFlow

	// perFlowFixes counts bottlenecks whose flows received more than
	// one rate and were fixed one flow at a time.
	perFlowFixes int64

	// flushFn/onCompletionFn are the bound methods scheduled on the
	// engine, captured once so the hot path does not allocate a new
	// method-value closure per event.
	flushFn        func()
	onCompletionFn func()

	onRates func(t Time)
}

// ForceFullRecompute disables the incremental component-local rate
// assignment: every flush reruns progressive filling over the entire
// network. The two modes produce bit-identical allocations; tests use
// this as the oracle the incremental path is checked against.
func (n *Net) ForceFullRecompute(on bool) { n.forceFull = on }

// Links returns every link in creation order.
func (n *Net) Links() []*Link { return n.links }

// SetRateObserver installs fn, called after every rate recomputation with
// the current virtual time; per-link assigned rates are then readable via
// Link.CurrentRate. It is a per-recomputation hook for tests; telemetry
// records through Link.RecordUtilization instead. A nil fn removes the
// observer.
func (n *Net) SetRateObserver(fn func(t Time)) { n.onRates = fn }

// netFlow is one flow: its completion event, which StartFlowCapped
// hands out, and its progress.
type netFlow struct {
	done      Event
	remaining float64
	path      *path // nil once retired
	seq       int64 // global arrival order, the order of every flow list
}

// path is the set of active flows with one link list and one rate cap.
// Progressive filling gives all of them one rate, so a path is the
// solver's unit: its flows are filled, advanced and retired together.
type path struct {
	links   []*Link
	rateCap float64 // 0 = uncapped
	rate    float64
	// flows are the members in non-decreasing remaining order: they
	// progress at one rate, so the next to finish is flows[0] and the
	// finished ones form a prefix.
	flows  []*netFlow
	idx    int32 // position in Net.paths; -1 once freed
	fixed  bool
	inComp bool
}

// NewNet returns an empty network bound to the engine.
func (e *Engine) NewNet() *Net {
	n := &Net{e: e}
	n.flushFn = n.flush
	n.onCompletionFn = n.onCompletion
	return n
}

// NewLink adds a link with the given capacity in bytes per second.
func (n *Net) NewLink(name string, bytesPerSec float64) *Link {
	l := &Link{id: len(n.links), name: name, rate: bytesPerSec}
	n.links = append(n.links, l)
	n.remCap = append(n.remCap, 0)
	n.count = append(n.count, 0)
	return l
}

// SetLinkRate changes a link's capacity at the current virtual time:
// in-flight flows keep the progress they made at the old rate and share
// the new capacity from now on. Fault injection uses this to model
// transient link degradation windows.
func (n *Net) SetLinkRate(l *Link, bytesPerSec float64) {
	if bytesPerSec < 0 {
		bytesPerSec = 0
	}
	n.advance()
	l.rate = bytesPerSec
	n.markDirtyLink(l)
	n.markDirty()
}

// StartFlow begins a flow of bytes across every link in links and returns
// an event that fires when it completes. Callers that need several
// concurrent flows (striped Lustre writes, scatter sends) start them all
// and then WaitAll. A non-positive size returns an already-fired event.
func (n *Net) StartFlow(bytes float64, links ...*Link) *Event {
	return n.StartFlowCapped(bytes, 0, links...)
}

// StartFlowCapped is StartFlow with an optional per-flow rate ceiling in
// bytes per second (0 = uncapped). It models flows that cannot use a full
// shared resource alone — e.g. a Lustre write that touches only a few
// stripes of the OST pool. A positive size with no links panics: such a
// flow would never complete.
func (n *Net) StartFlowCapped(bytes, rateCap float64, links ...*Link) *Event {
	if bytes <= 0 {
		done := n.e.NewEvent()
		done.Fire(nil)
		return done
	}
	if len(links) == 0 {
		panic(fmt.Sprintf("sim: flow of %.0f bytes with no links", bytes))
	}
	n.advance()
	p := n.pathFor(links, rateCap)
	f := &netFlow{done: Event{e: n.e}, remaining: bytes, path: p, seq: n.flowSeq}
	n.flowSeq++
	// Insert f after the members with no more bytes left.
	p.flows = append(p.flows, f)
	i := len(p.flows) - 1
	for ; i > 0 && p.flows[i-1].remaining > bytes; i-- {
		p.flows[i] = p.flows[i-1]
	}
	p.flows[i] = f
	for _, l := range links {
		l.bytesMoved += bytes
		l.flowsEver++
		l.flows = append(l.flows, f)
		n.markDirtyLink(l)
	}
	n.markDirty()
	return &f.done
}

// pathFor returns the path with exactly links and rateCap, found
// through the shortest path list of its links, or a new one, taken from
// the free list when it holds one.
func (n *Net) pathFor(links []*Link, rateCap float64) *path {
	via := links[0]
	for _, l := range links[1:] {
		if len(l.paths) < len(via.paths) {
			via = l
		}
	}
	for _, p := range via.paths {
		if p.rateCap == rateCap && slices.Equal(p.links, links) {
			return p
		}
	}
	var p *path
	if k := len(n.free); k > 0 {
		p = n.free[k-1]
		n.free = n.free[:k-1]
	} else {
		p = new(path)
	}
	p.links, p.rateCap, p.rate = links, rateCap, 0
	p.idx = int32(len(n.paths))
	n.paths = append(n.paths, p)
	for _, l := range links {
		l.paths = append(l.paths, p)
		if rateCap > 0 {
			l.capped++
		}
	}
	return p
}

// detach retires f and marks its links dirty; the next flush drops it
// from their flow lists.
func (n *Net) detach(f *netFlow) {
	for _, l := range f.path.links {
		n.markDirtyLink(l)
	}
	f.path = nil
}

// compactDirtyLinks drops retired flows from every dirty link's list,
// keeping the others in arrival order. After completions emptied a path
// it also drops the empty paths from the dirty links' lists and frees
// them. Every link a retired flow lists is dirty, so afterwards no list
// holds a retired flow or an empty path.
func (n *Net) compactDirtyLinks() {
	for _, l := range n.dirtyLinks {
		l.flows = slices.DeleteFunc(l.flows, func(f *netFlow) bool { return f.path == nil })
		if !n.emptied {
			continue
		}
		// The paths' order does not matter: move the last into a gap.
		for i := 0; i < len(l.paths); {
			p := l.paths[i]
			if len(p.flows) > 0 {
				i++
				continue
			}
			if p.rateCap > 0 {
				l.capped--
			}
			n.freePath(p)
			last := len(l.paths) - 1
			l.paths[i] = l.paths[last]
			l.paths[last] = nil
			l.paths = l.paths[:last]
		}
	}
	n.emptied = false
}

// freePath removes an empty path from Net.paths and puts it on the free
// list, unless it is already there.
func (n *Net) freePath(p *path) {
	if p.idx < 0 {
		return
	}
	last := n.paths[len(n.paths)-1]
	n.paths[p.idx] = last
	last.idx = p.idx
	n.paths[len(n.paths)-1] = nil
	n.paths = n.paths[:len(n.paths)-1]
	p.idx = -1
	p.links = nil
	n.free = append(n.free, p)
}

// Transfer moves bytes across every link in links simultaneously, blocking
// the calling process until the flow completes under max-min fair sharing
// with all concurrent flows. A zero-byte transfer returns immediately.
func (p *Proc) Transfer(n *Net, bytes float64, links ...*Link) error {
	if bytes <= 0 {
		return nil
	}
	if len(links) == 0 {
		return fmt.Errorf("sim: transfer of %.0f bytes with no links", bytes)
	}
	_, err := p.Wait(n.StartFlow(bytes, links...))
	return err
}

// markDirty schedules one rate recomputation at the current instant.
func (n *Net) markDirty() {
	if n.dirty {
		return
	}
	n.dirty = true
	n.cancelNext.Cancel()
	n.e.At(n.e.now, n.flushFn)
}

// markDirtyLink queues l for the next incremental recomputation.
func (n *Net) markDirtyLink(l *Link) {
	if l.dirty {
		return
	}
	l.dirty = true
	n.dirtyLinks = append(n.dirtyLinks, l)
}

func (n *Net) flush() {
	n.dirty = false
	n.compactDirtyLinks()
	if n.forceFull {
		for _, l := range n.dirtyLinks {
			l.dirty = false
		}
		n.dirtyLinks = n.dirtyLinks[:0]
		n.assignRates()
	} else {
		n.assignRatesIncremental()
	}
	n.scheduleNext()
	if n.onRates != nil {
		n.onRates(n.e.now)
	}
}

// advance integrates flow progress at current rates up to the present.
// Every member of a path loses the same bytes, and subtracting one value
// (and clamping at zero) is monotone, so the members stay in remaining
// order.
func (n *Net) advance() {
	dt := n.e.now - n.lastT
	n.lastT = n.e.now
	if dt <= 0 {
		return
	}
	for _, p := range n.paths {
		d := p.rate * dt
		for _, f := range p.flows {
			f.remaining -= d
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
	}
}

// assignRates performs the exact full recomputation: progressive filling
// over every path in the network. Kept as the oracle the incremental
// path must match bit-for-bit (ForceFullRecompute).
func (n *Net) assignRates() {
	n.fillRates(n.paths)
	for _, l := range n.links {
		if l.series != nil {
			l.record(n.e.now)
		}
	}
}

// assignRatesIncremental recomputes rates only for the connected
// components (links joined by shared paths) reachable from the links
// whose flow set or capacity changed. Component state — remaining
// capacity, flow counts, pick order — is exactly what the full algorithm
// would compute for those links, and untouched components keep their
// previous (still exact) allocation, so the resulting rates are
// bit-identical to a full recomputation. The walk collects the
// component's paths in BFS order; fillRates does not depend on it.
func (n *Net) assignRatesIncremental() {
	if len(n.dirtyLinks) == 0 {
		return
	}
	comp := n.compLinks[:0]
	for _, l := range n.dirtyLinks {
		l.inComp = true
	}
	comp = append(comp, n.dirtyLinks...)
	cp := n.compPaths[:0]
	for qi := 0; qi < len(comp); qi++ {
		for _, p := range comp[qi].paths {
			if p.inComp {
				continue
			}
			p.inComp = true
			cp = append(cp, p)
			for _, l2 := range p.links {
				if !l2.inComp {
					l2.inComp = true
					comp = append(comp, l2)
				}
			}
		}
	}
	n.fillRates(cp)
	for _, l := range comp {
		l.inComp = false
		l.dirty = false
		if l.series != nil {
			l.record(n.e.now)
		}
	}
	for _, p := range cp {
		p.inComp = false
	}
	n.dirtyLinks = n.dirtyLinks[:0]
	n.compLinks = comp[:0]
	n.compPaths = cp[:0]
}

// fillRates runs progressive filling over paths: repeatedly find the
// link whose fair share (remaining capacity / unfixed flows) is
// smallest, fix all its flows at that rate, and subtract their demand
// from the other links they traverse. Ties break toward the smaller link
// id so runs are deterministic, and the pick does not depend on the
// order links are scanned in, so a link whose flows are all fixed is
// dropped from the scan. paths may come in any order but must
// hold every active path on the links they traverse. Every path crosses
// a link, so while any is unfixed some link is a bottleneck.
//
// The result is bit-identical to filling flow by flow, in seq order.
// Flow counts are integers, so counting a path's flows at once is exact.
// When every flow a bottleneck fixes gets one rate, each other link it
// crosses receives m identical subtractions (each clamped at zero)
// whatever their order, so they are applied path by path. When caps make
// the rates differ, the bottleneck's flows are fixed one by one from its
// own list in seq order, as the flow-by-flow algorithm would.
func (n *Net) fillRates(paths []*path) {
	active := n.active[:0]
	for _, p := range paths {
		p.fixed = false
		k := len(p.flows)
		for _, l := range p.links {
			if n.count[l.id] == 0 {
				n.remCap[l.id] = l.rate
				active = append(active, l.id)
			}
			n.count[l.id] += k
		}
	}
	unfixed := len(paths)
	for unfixed > 0 {
		best := -1
		bestShare := math.Inf(1)
		for i := 0; i < len(active); {
			id := active[i]
			c := n.count[id]
			if c == 0 {
				// Every flow on the link is fixed: drop it.
				active[i] = active[len(active)-1]
				active = active[:len(active)-1]
				continue
			}
			share := n.remCap[id] / float64(c)
			if share < bestShare || (share == bestShare && (best < 0 || id < best)) {
				bestShare = share
				best = id
			}
			i++
		}
		if bestShare < 0 {
			bestShare = 0
		}
		bl := n.links[best]
		rate, one := bestShare, true
		if bl.capped > 0 {
			rate, one = oneRate(bl, bestShare)
		}
		if one {
			for _, p := range bl.paths {
				if p.fixed {
					continue
				}
				p.fixed = true
				p.rate = rate
				unfixed--
				n.take(p, rate)
			}
			continue
		}
		// Caps bind differently: fix flow by flow in seq order, the link
		// list's order, so remCap is decremented and clamped in the
		// order the flow-by-flow algorithm would; a flow's second slot
		// on the link sits next to its first. Modelling a cap as a
		// one-flow link would remove this branch.
		n.perFlowFixes++
		var prev *netFlow
		for _, f := range bl.flows {
			p := f.path
			if p.fixed || f == prev {
				continue
			}
			prev = f
			rate := capRate(p, bestShare)
			p.rate = rate
			for _, l := range p.links {
				n.remCap[l.id] -= rate
				if n.remCap[l.id] < 0 {
					n.remCap[l.id] = 0
				}
				n.count[l.id]--
			}
		}
		for _, p := range bl.paths {
			if !p.fixed {
				p.fixed = true
				unfixed--
			}
		}
	}
	// Every flow is fixed, so every count is back to zero.
	n.active = active[:0]
}

// capRate is the rate a bottleneck with fair share share gives p's flows.
func capRate(p *path, share float64) float64 {
	if p.rateCap > 0 && p.rateCap < share {
		return p.rateCap
	}
	return share
}

// oneRate reports whether every unfixed path on l gets the same rate
// (bit for bit) at fair share share, and which.
func oneRate(l *Link, share float64) (float64, bool) {
	rate, seen := 0.0, false
	for _, p := range l.paths {
		if p.fixed {
			continue
		}
		r := capRate(p, share)
		if !seen {
			rate, seen = r, true
		} else if math.Float64bits(r) != math.Float64bits(rate) {
			return 0, false
		}
	}
	return rate, true
}

// take fixes p's flows at rate: each link p lists loses len(p.flows)
// flows from its count and as many subtractions of rate, each clamped at
// zero, from its remaining capacity. A link whose count reaches zero
// keeps its capacity unread, so its subtractions are skipped.
func (n *Net) take(p *path, rate float64) {
	k := len(p.flows)
	for _, l := range p.links {
		n.count[l.id] -= k
		if n.count[l.id] == 0 {
			continue
		}
		rc := n.remCap[l.id]
		for i := 0; i < k; i++ {
			rc -= rate
			if rc < 0 {
				rc = 0
			}
		}
		n.remCap[l.id] = rc
	}
}

// scheduleNext arranges a callback at the earliest flow completion. A
// path's first member is its next to finish: dividing by one positive
// rate is monotone.
func (n *Net) scheduleNext() {
	n.cancelNext.Cancel()
	tmin := math.Inf(1)
	for _, p := range n.paths {
		if p.rate <= 0 {
			continue
		}
		t := p.flows[0].remaining / p.rate
		if t < tmin {
			tmin = t
		}
	}
	if math.IsInf(tmin, 1) {
		return
	}
	if tmin < 0 {
		tmin = 0
	}
	n.cancelNext = n.e.At(n.e.now+tmin, n.onCompletionFn)
}

// onCompletion retires finished flows, a prefix of each path, firing
// them in seq order, and recomputes the sharing.
func (n *Net) onCompletion() {
	n.advance()
	done := n.finished[:0]
	for _, p := range n.paths {
		k := 0
		for k < len(p.flows) && p.flows[k].remaining <= completionEps {
			k++
		}
		if k == 0 {
			continue
		}
		done = append(done, p.flows[:k]...)
		m := copy(p.flows, p.flows[k:])
		clear(p.flows[m:])
		p.flows = p.flows[:m]
		if m == 0 {
			n.emptied = true
		}
	}
	if len(done) > 1 {
		slices.SortFunc(done, func(a, b *netFlow) int { return cmp.Compare(a.seq, b.seq) })
	}
	for _, f := range done {
		n.detach(f)
		f.done.Fire(nil)
	}
	clear(done)
	n.finished = done[:0]
	n.markDirty()
}
