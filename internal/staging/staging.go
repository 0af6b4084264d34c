// Package staging provides the pieces every in-memory staging library in
// the testbed shares: a versioned block store with node-memory accounting
// and bounded version retention (the max_versions runtime setting of
// Table I), and a version gate implementing the writer-publishes /
// reader-waits coordination that DataSpaces exposes as its lock API
// (lock_type=2: readers of version v proceed once all writers of v have
// unlocked).
package staging

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/metrics"
	"github.com/imcstudy/imcstudy/internal/ndarray"
	"github.com/imcstudy/imcstudy/internal/sim"
)

// ErrNotFound is returned by Query when no blocks intersect the request.
var ErrNotFound = errors.New("staging: no data for request")

// Key identifies one version of one variable.
type Key struct {
	Var     string
	Version int
}

// Store is a versioned block store bound to a node. Every stored byte is
// charged against the node's memory and attributed to the owning
// component in the machine's memory tracker; an overflow surfaces as
// hpc.ErrOutOfNodeMemory (Table IV, "out of main memory").
type Store struct {
	m           *hpc.Machine
	node        *hpc.Node
	component   string
	kind        string
	maxVersions int
	// overheadFactor charges extra bytes per staged byte for the library's
	// internal buffering/transformation (DataSpaces ~0.75x, Decaf ~6x —
	// Figure 7 and Finding 2).
	overheadFactor float64

	blocks map[Key]*blockSet
	bytes  map[Key]int64
	vers   map[string][]int // sorted versions per variable

	// Cached telemetry instruments, resolved once per registry so the
	// per-operation count calls skip name building and registry locking.
	ctrReg      *metrics.Registry
	ctrs        map[string]*storeCounters
	compObjects *metrics.Gauge
	compBytes   *metrics.Gauge
}

// storeCounters caches the aggregate counters for one operation kind.
type storeCounters struct {
	objects *metrics.Counter
	bytes   *metrics.Counter
}

// blockSet holds one version's blocks with a cheap spatial index: when
// sibling blocks tile along a single discriminating dimension (the common
// case — writers decompose one dimension), they are kept sorted by that
// dimension's lower bound so queries bisect instead of scanning. Mixed
// layouts (e.g. a server owning two staging regions, whose blocks differ
// along both the writer dimension and the region dimension) keep the
// blocks in insertion order and look them up through an
// ndarray.BoxIndex, which returns the same subset in the same order as a
// linear scan.
type blockSet struct {
	blocks []ndarray.Block
	// dim is the discriminating dimension; -1 means mixed layout,
	// -2 means not yet determined (0 or 1 blocks stored).
	dim int
	// sorted records whether blocks are ordered by Lo[dim]; adds are
	// O(1) appends and the sort happens lazily at the first query.
	sorted bool
	// maxW is the widest extent along dim (recomputed with the lazy
	// sort): a block can reach into a query only if it starts within
	// maxW below the query's lower bound, which bounds the bisection
	// without assuming the blocks tile — overlapping same-Lo blocks
	// with different extents are still found.
	maxW uint64
	// mixed indexes blocks by position once the layout is mixed.
	mixed *ndarray.BoxIndex
}

func newBlockSet() *blockSet { return &blockSet{dim: -2} }

// add appends a block, tracking whether the set still tiles a single
// discriminating dimension.
func (bs *blockSet) add(blk ndarray.Block) {
	switch {
	case bs.dim == -2 && len(bs.blocks) == 0:
		bs.blocks = append(bs.blocks, blk)
		return
	case bs.dim == -2:
		// Determine the discriminating dimension from the first pair.
		first := bs.blocks[0].Box
		diff := -1
		for i := range first.Lo {
			if first.Lo[i] != blk.Box.Lo[i] || first.Hi[i] != blk.Box.Hi[i] {
				if diff >= 0 {
					diff = -1
					break
				}
				diff = i
			}
		}
		bs.dim = diff
	case bs.dim >= 0:
		// Verify the new block still fits the single-dimension layout.
		first := bs.blocks[0].Box
		for i := range first.Lo {
			if i == bs.dim {
				continue
			}
			if first.Lo[i] != blk.Box.Lo[i] || first.Hi[i] != blk.Box.Hi[i] {
				bs.dim = -1
				break
			}
		}
	}
	bs.blocks = append(bs.blocks, blk)
	bs.sorted = false
	if bs.dim != -1 {
		return
	}
	if bs.mixed == nil {
		// The layout just turned mixed: index the blocks in their
		// current order, which the index then preserves.
		bs.mixed = &ndarray.BoxIndex{}
		for _, b := range bs.blocks {
			bs.mixed.Add(b.Box)
		}
		return
	}
	bs.mixed.Add(blk.Box)
}

// query returns the sub-blocks of bs intersecting box.
func (bs *blockSet) query(box ndarray.Box) ([]ndarray.Block, error) {
	if bs.dim == -1 {
		var out []ndarray.Block
		for _, i := range bs.mixed.Overlapping(box, nil) {
			var err error
			if out, err = appendSub(out, bs.blocks[i], box); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	lo, hi := 0, len(bs.blocks)
	if bs.dim >= 0 {
		d := bs.dim
		if !bs.sorted {
			sort.SliceStable(bs.blocks, func(a, b int) bool {
				return bs.blocks[a].Box.Lo[d] < bs.blocks[b].Box.Lo[d]
			})
			bs.maxW = 0
			for _, blk := range bs.blocks {
				if w := blk.Box.Hi[d] - blk.Box.Lo[d]; w > bs.maxW {
					bs.maxW = w
				}
			}
			bs.sorted = true
		}
		// Blocks starting before box.Lo[d] can still reach into it, but
		// only from within maxW below it.
		minLo := uint64(0)
		if box.Lo[d] > bs.maxW {
			minLo = box.Lo[d] - bs.maxW
		}
		lo = sort.Search(len(bs.blocks), func(k int) bool {
			return bs.blocks[k].Box.Lo[d] >= minLo
		})
		hi = sort.Search(len(bs.blocks), func(k int) bool {
			return bs.blocks[k].Box.Lo[d] >= box.Hi[d]
		})
	}
	var out []ndarray.Block
	for _, blk := range bs.blocks[lo:hi] {
		if !blk.Box.Overlaps(box) {
			continue
		}
		var err error
		if out, err = appendSub(out, blk, box); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// appendSub appends the part of blk inside box, which must overlap it.
func appendSub(out []ndarray.Block, blk ndarray.Block, box ndarray.Box) ([]ndarray.Block, error) {
	overlap, _ := blk.Box.Intersect(box)
	sub, err := blk.Sub(overlap)
	if err != nil {
		return nil, err
	}
	return append(out, sub), nil
}

// NewStore creates a store for the named component on node. maxVersions
// bounds how many versions of a variable are retained (older versions are
// evicted on Put); <= 0 means unbounded.
func NewStore(m *hpc.Machine, node *hpc.Node, component, kind string, maxVersions int, overheadFactor float64) *Store {
	return &Store{
		m:              m,
		node:           node,
		component:      component,
		kind:           kind,
		maxVersions:    maxVersions,
		overheadFactor: overheadFactor,
		blocks:         make(map[Key]*blockSet),
		bytes:          make(map[Key]int64),
		vers:           make(map[string][]int),
	}
}

// Component returns the owning component name.
func (s *Store) Component() string { return s.component }

// Put stores a block under key, charging node memory (including the
// library overhead factor). Versions beyond maxVersions are evicted
// *before* the new block is admitted, so the peak footprint reflects the
// retained window, not a transient overlap.
//
// Injected busy windows on the store's node reject the put with
// hpc.ErrServerBusy (back-pressure: overload shedding before admission);
// injected op-fault windows fail it with hpc.ErrTransientOp. Both are
// transient — a retry policy re-issues them.
func (s *Store) Put(key Key, blk ndarray.Block) error {
	now := s.m.E.Now()
	if s.node.DrawServerBusy(now) {
		s.countFault("busy_rejections")
		return fmt.Errorf("%w: put %s v%d on %s", hpc.ErrServerBusy, key.Var, key.Version, s.component)
	}
	if s.node.DrawOpFault(now) {
		s.countFault("op_faults")
		return fmt.Errorf("%w: put %s v%d on %s", hpc.ErrTransientOp, key.Var, key.Version, s.component)
	}
	if s.maxVersions > 0 {
		if _, exists := s.blocks[key]; !exists && len(s.vers[key.Var]) >= s.maxVersions {
			s.evictFor(key.Var, key.Version)
		}
	}
	cost := blk.Bytes() + int64(s.overheadFactor*float64(blk.Bytes()))
	if err := s.m.Alloc(s.node, s.component, s.kind, cost); err != nil {
		return fmt.Errorf("staging put %s v%d: %w", key.Var, key.Version, err)
	}
	set, ok := s.blocks[key]
	if !ok {
		vs := s.vers[key.Var]
		i := sort.SearchInts(vs, key.Version)
		if i == len(vs) || vs[i] != key.Version {
			vs = append(vs, 0)
			copy(vs[i+1:], vs[i:])
			vs[i] = key.Version
			s.vers[key.Var] = vs
		}
		set = newBlockSet()
		s.blocks[key] = set
	}
	set.add(blk)
	s.bytes[key] += cost
	s.count("put", 1, cost)
	return nil
}

// count records store telemetry: aggregate object/byte counters for every
// store, plus per-component sampled tracks for staging servers (the
// memory-resident processes the paper profiles); per-rank client stores
// stay out of the per-component namespace so large runs don't bloat the
// report.
func (s *Store) count(op string, objects, cost int64) {
	reg := s.m.Metrics
	if reg == nil {
		return
	}
	if reg != s.ctrReg {
		s.ctrReg = reg
		s.ctrs = make(map[string]*storeCounters, 4)
		s.compObjects, s.compBytes = nil, nil
		if strings.Contains(s.component, "server") {
			s.compObjects = reg.Gauge("staging/" + s.component + "/objects")
			s.compBytes = reg.SampledGauge("staging/" + s.component + "/bytes")
		}
	}
	c, ok := s.ctrs[op]
	if !ok {
		c = &storeCounters{
			objects: reg.Counter("staging/" + op + "/objects"),
			bytes:   reg.Counter("staging/" + op + "/bytes"),
		}
		s.ctrs[op] = c
	}
	c.objects.Add(float64(objects))
	c.bytes.Add(float64(cost))
	if s.compObjects != nil {
		sign := 1.0
		if op == "drop" {
			sign = -1
		}
		s.compObjects.Add(sign * float64(objects))
		s.compBytes.Add(sign * float64(cost))
	}
}

// evictFor drops the oldest versions of a variable until a new version
// can be admitted within maxVersions.
func (s *Store) evictFor(varName string, incoming int) {
	for len(s.vers[varName]) >= s.maxVersions {
		oldest := s.vers[varName][0]
		if oldest >= incoming {
			return // never evict a version newer than the incoming one
		}
		s.DropVersion(Key{Var: varName, Version: oldest})
	}
}

// countFault records one injected transient store fault; no-op without
// a registry on the machine.
func (s *Store) countFault(kind string) {
	if reg := s.m.Metrics; reg != nil {
		reg.Counter("faults/" + kind).Inc()
	}
}

// Query returns the stored blocks of key that intersect box. Injected
// op-fault windows on the store's node fail the query transiently with
// hpc.ErrTransientOp before any lookup happens.
func (s *Store) Query(key Key, box ndarray.Box) ([]ndarray.Block, error) {
	if s.node.DrawOpFault(s.m.E.Now()) {
		s.countFault("op_faults")
		return nil, fmt.Errorf("%w: get %s v%d on %s", hpc.ErrTransientOp, key.Var, key.Version, s.component)
	}
	set, ok := s.blocks[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s v%d %s on %s", ErrNotFound, key.Var, key.Version, box, s.component)
	}
	out, err := set.query(box)
	if err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: %s v%d %s on %s", ErrNotFound, key.Var, key.Version, box, s.component)
	}
	return out, nil
}

// BytesStored returns the charged bytes for key.
func (s *Store) BytesStored(key Key) int64 { return s.bytes[key] }

// Keys returns every stored key, sorted by variable then version, so
// recovery walks a store in deterministic order.
func (s *Store) Keys() []Key {
	keys := make([]Key, 0, len(s.blocks))
	for key := range s.blocks {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].Var != keys[b].Var {
			return keys[a].Var < keys[b].Var
		}
		return keys[a].Version < keys[b].Version
	})
	return keys
}

// Blocks returns a copy of the block list stored under key (nil when
// the key is absent). Re-replication reads a survivor's blocks through
// this to rebuild lost copies.
func (s *Store) Blocks(key Key) []ndarray.Block {
	set, ok := s.blocks[key]
	if !ok {
		return nil
	}
	out := make([]ndarray.Block, len(set.blocks))
	copy(out, set.blocks)
	return out
}

// DropVersion frees all blocks of key and returns the memory.
func (s *Store) DropVersion(key Key) {
	if cost, ok := s.bytes[key]; ok {
		s.count("drop", int64(len(s.blocks[key].blocks)), cost)
		s.m.Free(s.node, s.component, s.kind, cost)
		delete(s.bytes, key)
		delete(s.blocks, key)
	}
	vs := s.vers[key.Var]
	for i, v := range vs {
		if v == key.Version {
			s.vers[key.Var] = append(vs[:i], vs[i+1:]...)
			break
		}
	}
}

// Close frees everything the store holds. Versions drop in sorted key
// order so the memory releases (which can unblock waiters) are
// deterministic.
func (s *Store) Close() {
	keys := make([]Key, 0, len(s.bytes))
	for key := range s.bytes {
		keys = append(keys, key)
	}
	sortKeys(keys)
	for _, key := range keys {
		s.DropVersion(key)
	}
}

// sortKeys orders keys by variable name, then version.
func sortKeys(keys []Key) {
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].Var != keys[b].Var {
			return keys[a].Var < keys[b].Var
		}
		return keys[a].Version < keys[b].Version
	})
}

// Gate coordinates writers and readers of versioned variables: each
// version has a writer count; readers of version v block until every
// writer of v has committed. This models DataSpaces' lock_on_write /
// lock_on_read protocol with lock_type=2.
//
// Gates are failure-aware: when a producer dies before committing, Fail
// releases every pending and future waiter with an error instead of
// deadlocking the engine (the hang a real reader experiences when its
// writer's node crashes mid-version).
type Gate struct {
	e       *sim.Engine
	writers int
	commits map[Key]int
	ready   map[Key]*sim.Event
	failErr error
}

// NewGate creates a gate expecting the given number of writers per
// version.
func NewGate(e *sim.Engine, writers int) *Gate {
	return &Gate{
		e:       e,
		writers: writers,
		commits: make(map[Key]int),
		ready:   make(map[Key]*sim.Event),
	}
}

// Commit records that one writer finished version key; when all writers
// have, readers are released.
func (g *Gate) Commit(key Key) {
	g.commits[key]++
	if g.commits[key] >= g.writers {
		g.event(key).Fire(nil)
	}
}

// Fail poisons the gate: every version not yet fully committed — and
// every version first waited on after the call — releases its waiters
// with an error wrapping cause. Versions already ready stay ready
// (their data was published before the failure).
func (g *Gate) Fail(cause error) {
	if g.failErr != nil {
		return
	}
	if cause == nil {
		cause = hpc.ErrNodeFailed
	}
	g.failErr = cause
	// Fire in sorted key order, not map order: each Fire schedules its
	// waiters' wake-ups, so iteration order is event order.
	keys := make([]Key, 0, len(g.ready))
	for key := range g.ready {
		keys = append(keys, key)
	}
	sortKeys(keys)
	for _, key := range keys {
		g.ready[key].Fire(cause) // no-op on already-fired (ready) versions
	}
}

// Failed returns the cause passed to Fail, or nil while the gate is
// healthy.
func (g *Gate) Failed() error { return g.failErr }

// WaitReady blocks until version key is fully written, or returns an
// error wrapping the failure cause when the gate's producers died
// before committing it.
func (g *Gate) WaitReady(p *sim.Proc, key Key) error {
	v, err := p.Wait(g.event(key))
	if err != nil {
		return err
	}
	if cause, ok := v.(error); ok && cause != nil {
		return fmt.Errorf("staging: %s v%d will never be ready: %w", key.Var, key.Version, cause)
	}
	return nil
}

// Ready reports whether version key is fully written. A version
// released by Fail is not ready — its waiters were unblocked with an
// error, not with data.
func (g *Gate) Ready(key Key) bool {
	ev := g.event(key)
	if !ev.Fired() {
		return false
	}
	cause, failed := ev.Value().(error)
	return !failed || cause == nil
}

func (g *Gate) event(key Key) *sim.Event {
	ev, ok := g.ready[key]
	if !ok {
		ev = g.e.NewEvent()
		ev.SetLabel(fmt.Sprintf("gate %s v%d", key.Var, key.Version))
		if g.failErr != nil {
			ev.Fire(g.failErr)
		}
		g.ready[key] = ev
	}
	return ev
}
