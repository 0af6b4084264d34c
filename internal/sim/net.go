package sim

import (
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
	curRate    float64

	// flows is the set of active flows traversing this link in arrival
	// (seq) order, one entry per occurrence: a flow listing the link
	// twice sits in two adjacent slots. Retired flows stay until the
	// next flush compacts the list. It doubles as the node→active-flows
	// index: SetLinkRate and fault windows reach exactly the affected
	// flows instead of scanning the whole network.
	flows []*netFlow
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
func (l *Link) CurrentRate() float64 { return l.curRate }

// Utilization returns CurrentRate as a fraction of capacity.
func (l *Link) Utilization() float64 {
	if l.rate <= 0 {
		return 0
	}
	return l.curRate / l.rate
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
// Rate assignment is coalesced: any number of flow arrivals and
// completions at the same virtual instant trigger a single recomputation,
// which keeps large fan-outs (thousands of simultaneous puts) affordable.
type Net struct {
	e          *Engine
	links      []*Link
	flows      []*netFlow
	flowSeq    int64
	lastT      Time
	cancelNext Handle
	dirty      bool

	// dirtyLinks accumulates the links whose flow set or capacity
	// changed since the last rate assignment; flush recomputes only the
	// connected components (links joined by shared flows) they touch.
	// forceFull disables the incremental path and recomputes the whole
	// network every flush — the exact-oracle mode property tests compare
	// against.
	dirtyLinks []*Link
	forceFull  bool

	// Scratch buffers for assignRates, indexed by link id.
	remCap []float64
	count  []int
	// Reused scratch for the component walk and the filling loop.
	compLinks []*Link
	compFlows []*netFlow
	active    []*Link

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

type netFlow struct {
	remaining float64
	rate      float64
	rateCap   float64 // 0 = uncapped
	links     []*Link
	done      *Event
	fixed     bool
	retired   bool  // completed; flush drops it from its links' lists
	seq       int64 // global arrival order, the order of every flow list
	inComp    bool
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
	done := n.e.NewEvent()
	if bytes <= 0 {
		done.Fire(nil)
		return done
	}
	if len(links) == 0 {
		panic(fmt.Sprintf("sim: flow of %.0f bytes with no links", bytes))
	}
	f := &netFlow{remaining: bytes, rateCap: rateCap, links: links, done: done, seq: n.flowSeq}
	n.flowSeq++
	n.advance()
	n.flows = append(n.flows, f)
	for _, l := range links {
		l.bytesMoved += bytes
		l.flowsEver++
		l.flows = append(l.flows, f)
		n.markDirtyLink(l)
	}
	n.markDirty()
	return done
}

// detach retires f and marks its links dirty; the next flush drops it
// from their flow lists.
func (n *Net) detach(f *netFlow) {
	f.retired = true
	for _, l := range f.links {
		n.markDirtyLink(l)
	}
}

// compactDirtyLinks drops retired flows from every dirty link's list,
// keeping the others in arrival order. Every link a retired flow lists
// is dirty, so afterwards no list holds one.
func (n *Net) compactDirtyLinks() {
	for _, l := range n.dirtyLinks {
		l.flows = slices.DeleteFunc(l.flows, func(f *netFlow) bool { return f.retired })
	}
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
func (n *Net) advance() {
	dt := n.e.now - n.lastT
	n.lastT = n.e.now
	if dt <= 0 {
		return
	}
	for _, f := range n.flows {
		f.remaining -= f.rate * dt
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
}

// assignRates performs the exact full recomputation: progressive filling
// over every link that currently carries flows. Kept as the oracle the
// incremental path must match bit-for-bit (ForceFullRecompute).
func (n *Net) assignRates() {
	for _, l := range n.links {
		l.curRate = 0
	}
	n.fillRates(n.flows)
	for _, l := range n.links {
		if l.series != nil {
			l.record(n.e.now)
		}
	}
}

// assignRatesIncremental recomputes rates only for the connected
// components (links joined by shared flows) reachable from the links
// whose flow set or capacity changed. Component state — remaining
// capacity, flow counts, pick order — is exactly what the full algorithm
// would compute for those links, and untouched components keep their
// previous (still exact) allocation, so the resulting rates are
// bit-identical to a full recomputation. The walk collects the
// component's flows in BFS order; fillRates does not depend on it.
func (n *Net) assignRatesIncremental() {
	if len(n.dirtyLinks) == 0 {
		return
	}
	comp := n.compLinks[:0]
	for _, l := range n.dirtyLinks {
		l.inComp = true
	}
	comp = append(comp, n.dirtyLinks...)
	cf := n.compFlows[:0]
	for qi := 0; qi < len(comp); qi++ {
		for _, f := range comp[qi].flows {
			if f.inComp {
				continue
			}
			f.inComp = true
			cf = append(cf, f)
			for _, l2 := range f.links {
				if !l2.inComp {
					l2.inComp = true
					comp = append(comp, l2)
				}
			}
		}
	}
	for _, l := range comp {
		l.curRate = 0
	}
	n.fillRates(cf)
	for _, l := range comp {
		l.inComp = false
		l.dirty = false
		if l.series != nil {
			l.record(n.e.now)
		}
	}
	for _, f := range cf {
		f.inComp = false
	}
	n.dirtyLinks = n.dirtyLinks[:0]
	n.compLinks = comp[:0]
	n.compFlows = cf[:0]
}

// fillRates runs progressive filling over flows: repeatedly find the link
// whose fair share (remaining capacity / unfixed flows) is smallest, fix
// all its flows at that rate, and subtract their demand from the other
// links they traverse. Ties break toward the smaller link id so runs are
// deterministic. flows may come in any order but must hold every active
// flow on the links they traverse: a bottleneck's flows, and each link's
// aggregate rate, come from the link's own list in seq order, so the
// result does not depend on the order of flows. Every flow crosses a
// link, so while any is unfixed some link is a bottleneck. Callers must
// have zeroed curRate on every link the flows traverse.
func (n *Net) fillRates(flows []*netFlow) {
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
		// Fix the bottleneck's flows in seq order, its list's order, so
		// remCap is decremented and clamped in the order a scan of flows
		// would; a flow's second slot on the link is already fixed.
		for _, f := range n.links[best].flows {
			if f.fixed {
				continue
			}
			f.fixed = true
			rate := bestShare
			if f.rateCap > 0 && f.rateCap < rate {
				rate = f.rateCap
			}
			f.rate = rate
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
	// Reset scratch counters for the next recomputation, and roll up the
	// per-link aggregate rates that utilization is recorded from, each
	// link summing its own list in seq order.
	for _, l := range active {
		n.count[l.id] = 0
		for _, f := range l.flows {
			l.curRate += f.rate
		}
	}
	n.active = active[:0]
}

// scheduleNext arranges a callback at the earliest flow completion.
func (n *Net) scheduleNext() {
	n.cancelNext.Cancel()
	tmin := math.Inf(1)
	for _, f := range n.flows {
		if f.rate <= 0 {
			continue
		}
		t := f.remaining / f.rate
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

// onCompletion retires finished flows and recomputes the sharing.
func (n *Net) onCompletion() {
	n.advance()
	keep := n.flows[:0]
	for _, f := range n.flows {
		if f.remaining <= completionEps {
			n.detach(f)
			f.done.Fire(nil)
		} else {
			keep = append(keep, f)
		}
	}
	for i := len(keep); i < len(n.flows); i++ {
		n.flows[i] = nil
	}
	n.flows = keep
	n.markDirty()
}
