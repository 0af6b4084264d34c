// Package decaf models Decaf (Dreher & Peterka), the decoupled-dataflow
// system: a workflow is a graph whose nodes (producer, dataflow, consumer)
// are rank ranges inside a single MPI communicator, and whose edges
// redistribute data between them (Section II-A).
//
// Behaviours reproduced from the paper:
//
//   - everything runs inside one MPI job, so communication is portable
//     MPI message passing (Finding 7) but shared-node deployment needs
//     heterogeneous MPMD launch support, which Cori lacks (Finding 5);
//   - the 'count' redistribution splits flattened arrays by element
//     count between unequal rank ranges (Table I:
//     prod_dflow_redist='count');
//   - the high-level data objects are flattened and buffered on both the
//     client and dataflow sides; a dataflow rank's footprint reaches ~7x
//     the raw bytes it stages (1.8 GB for 256 MB raw — Figure 7,
//     Finding 2).
package decaf

import (
	"errors"
	"fmt"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/mpi"
	"github.com/imcstudy/imcstudy/internal/ndarray"
	"github.com/imcstudy/imcstudy/internal/sim"
	"github.com/imcstudy/imcstudy/internal/staging"
)

// Errors.
var (
	// ErrHeterogeneous reports a colocated deployment on a machine without
	// heterogeneous (MPMD-in-one-communicator) launch support (Finding 5).
	ErrHeterogeneous = errors.New("decaf: machine does not support heterogeneous runs for colocated deployment")
	// ErrUnknownNode reports a graph edge naming an undefined node.
	ErrUnknownNode = errors.New("decaf: unknown graph node")
	// ErrUndefinedVar reports a get for a variable never put.
	ErrUndefinedVar = errors.New("decaf: variable not defined")
)

// Memory and cost model constants.
const (
	// DflowOverheadFactor is the extra bytes per staged raw byte on a
	// dataflow rank (raw + 6x transformation = the 7x of Finding 2).
	DflowOverheadFactor = 6.0
	// ClientBaseBytes + ClientFlattenBytes + ClientBufFactor x per-step
	// output is a producer or consumer rank's library footprint (~560 MB
	// total for LAMMPS, Figure 5d: 40% above the other libraries).
	ClientBaseBytes int64 = 187 << 20
	// ClientFlattenBytes is the fixed cost of the typed-object
	// flatten/serialize machinery.
	ClientFlattenBytes int64 = 160 << 20
	// ClientBufFactor is the client-side buffering per output byte.
	ClientBufFactor = 2.0
	// TransformBytesPerSec is the throughput of the data transformation
	// (flattening + serialization into Decaf's typed objects).
	TransformBytesPerSec = 2e9
	// dflowBaseBytes is a dataflow rank's fixed footprint.
	dflowBaseBytes int64 = 32 << 20
	// tagData is the MPI tag for redistribution messages.
	tagData = 77
)

// Role classifies a graph node.
type Role int

// Graph node roles.
const (
	RoleProducer Role = iota + 1
	RoleDflow
	RoleConsumer
)

// RedistKind selects an edge's redistribution strategy.
type RedistKind int

// Redistribution strategies.
const (
	// RedistCount splits flattened data by element count (the paper's
	// runtime configuration).
	RedistCount RedistKind = iota + 1
)

// GraphNode is one node of the dataflow graph.
type GraphNode struct {
	Name  string
	Role  Role
	Ranks int
}

// Edge is one dataflow edge.
type Edge struct {
	From, To string
	Redist   RedistKind
}

// Graph is the Python-level workflow description (add_node/add_edge).
type Graph struct {
	nodes []GraphNode
	edges []Edge
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// AddNode appends a node (the add_node call of Decaf's Python API).
func (g *Graph) AddNode(name string, role Role, ranks int) {
	g.nodes = append(g.nodes, GraphNode{Name: name, Role: role, Ranks: ranks})
}

// AddEdge appends an edge (add_edge).
func (g *Graph) AddEdge(from, to string, redist RedistKind) {
	g.edges = append(g.edges, Edge{From: from, To: to, Redist: redist})
}

// Nodes returns the graph nodes in insertion order.
func (g *Graph) Nodes() []GraphNode { return g.nodes }

// TotalRanks returns the world size the graph needs.
func (g *Graph) TotalRanks() int {
	total := 0
	for _, n := range g.nodes {
		total += n.Ranks
	}
	return total
}

// Chunk is a contiguous range of a flattened global array.
type Chunk struct {
	Offset uint64
	Count  uint64
	Data   []float64 // nil for synthetic runs
}

// Bytes returns the chunk's payload size.
func (c Chunk) Bytes() int64 { return int64(c.Count) * ndarray.ElemSize }

// varState tracks a variable's flattened extent.
type varState struct {
	totalElems uint64
}

// System is a deployed Decaf workflow (processGraph).
type System struct {
	m     *hpc.Machine
	graph *Graph
	world *mpi.Comm

	rankOf map[string][]int // node name -> world ranks
	stores []*staging.Store // one per dflow rank, in dflow order
	dflows []int            // world ranks of dflow nodes
	gate   *staging.Gate
	vars   map[string]varState
	name   string
}

// Deploy lays the graph out on a communicator: ranks are assigned to
// nodes in graph insertion order. colocated marks a shared-node
// deployment, which requires heterogeneous launch support (Finding 5).
func Deploy(m *hpc.Machine, g *Graph, world *mpi.Comm, colocated bool) (*System, error) {
	if colocated && !m.Spec().AllowHeterogeneous {
		return nil, fmt.Errorf("%w on %s", ErrHeterogeneous, m.Spec().Name)
	}
	if g.TotalRanks() != world.Size() {
		return nil, fmt.Errorf("decaf: graph needs %d ranks, world has %d", g.TotalRanks(), world.Size())
	}
	for _, e := range g.edges {
		if findNode(g, e.From) == nil || findNode(g, e.To) == nil {
			return nil, fmt.Errorf("%w: edge %s->%s", ErrUnknownNode, e.From, e.To)
		}
	}
	sys := &System{
		m:      m,
		graph:  g,
		world:  world,
		rankOf: make(map[string][]int),
		vars:   make(map[string]varState),
		name:   "decaf",
	}
	next := 0
	producers := 0
	// Co-located dflow ranks share one NIC; watch it once, under the
	// first dflow rank on the node, as DataSpaces and DIMES do.
	watched := make(map[*hpc.Node]bool)
	for _, n := range g.nodes {
		ranks := make([]int, n.Ranks)
		for i := range ranks {
			ranks[i] = next
			next++
		}
		sys.rankOf[n.Name] = ranks
		switch n.Role {
		case RoleDflow:
			for _, r := range ranks {
				comp := fmt.Sprintf("decaf-server-%d", len(sys.stores))
				node := world.Node(r)
				store := staging.NewStore(m, node, comp, "staging", 1, DflowOverheadFactor)
				if err := m.Alloc(node, comp, "base", dflowBaseBytes); err != nil {
					return nil, err
				}
				if !watched[node] {
					watched[node] = true
					m.WatchNode(comp, node)
				}
				sys.stores = append(sys.stores, store)
				sys.dflows = append(sys.dflows, r)
			}
		case RoleProducer:
			producers += n.Ranks
		}
	}
	if len(sys.dflows) == 0 {
		return nil, errors.New("decaf: graph has no dataflow node")
	}
	if producers == 0 {
		return nil, errors.New("decaf: graph has no producer node")
	}
	sys.gate = staging.NewGate(m.E, producers)
	return sys, nil
}

func findNode(g *Graph, name string) *GraphNode {
	for i := range g.nodes {
		if g.nodes[i].Name == name {
			return &g.nodes[i]
		}
	}
	return nil
}

// Ranks returns the world ranks of a graph node.
func (s *System) Ranks(name string) []int { return s.rankOf[name] }

// DflowCount returns the number of dataflow (staging) ranks.
func (s *System) DflowCount() int { return len(s.dflows) }

// Client is a producer or consumer rank's handle.
type Client struct {
	sys  *System
	rank *mpi.Rank
	name string
}

// NewClient attaches the producing/consuming world rank. perStepBytes
// sizes the flatten/buffer footprint.
func (s *System) NewClient(worldRank int, name string, perStepBytes int64) (*Client, error) {
	r, err := s.world.Rank(worldRank)
	if err != nil {
		return nil, err
	}
	lib := ClientBaseBytes + ClientFlattenBytes + int64(ClientBufFactor*float64(perStepBytes))
	if err := s.m.Alloc(s.world.Node(worldRank), name, "library", lib); err != nil {
		return nil, err
	}
	return &Client{sys: s, rank: r, name: name}, nil
}

// DefineVar declares a variable's flattened global element count.
func (s *System) DefineVar(varName string, totalElems uint64) {
	s.vars[varName] = varState{totalElems: totalElems}
}

// dflowRange returns dflow index j's element range under 'count'
// redistribution of total elements.
func (s *System) dflowRange(varName string, j int) (lo, hi uint64, err error) {
	v, ok := s.vars[varName]
	if !ok {
		return 0, 0, fmt.Errorf("%w: %s", ErrUndefinedVar, varName)
	}
	d := uint64(len(s.dflows))
	per := v.totalElems / d
	rem := v.totalElems % d
	uj := uint64(j)
	lo = uj*per + min(uj, rem)
	size := per
	if uj < rem {
		size++
	}
	return lo, lo + size, nil
}

// Put redistributes the producer's chunk to the dataflow ranks by element
// count, paying the transformation cost first (the flatten/serialize that
// drives Decaf's memory and CPU overhead).
func (c *Client) Put(p *sim.Proc, varName string, version int, chunk Chunk) error {
	if _, ok := c.sys.vars[varName]; !ok {
		return fmt.Errorf("%w: %s", ErrUndefinedVar, varName)
	}
	if reg := c.sys.m.Metrics; reg != nil {
		g := reg.SampledGauge(c.sys.name + "/puts_inflight")
		g.Add(1)
		defer g.Add(-1)
	}
	if err := c.sys.m.Compute(p, float64(chunk.Bytes())/TransformBytesPerSec); err != nil {
		return err
	}
	key := staging.Key{Var: varName, Version: version}
	var waits []*sim.Event
	type delivery struct {
		store *staging.Store
		blk   ndarray.Block
	}
	var deliveries []delivery
	for j := range c.sys.dflows {
		lo, hi, err := c.sys.dflowRange(varName, j)
		if err != nil {
			return err
		}
		olo, ohi := max(lo, chunk.Offset), min(hi, chunk.Offset+chunk.Count)
		if olo >= ohi {
			continue
		}
		box, err := ndarray.NewBox([]uint64{olo}, []uint64{ohi})
		if err != nil {
			return err
		}
		var blk ndarray.Block
		if chunk.Data != nil {
			blk = ndarray.Block{Box: box, Data: append([]float64(nil), chunk.Data[olo-chunk.Offset:ohi-chunk.Offset]...)}
		} else {
			blk = ndarray.NewSyntheticBlock(box)
		}
		ev, err := c.rank.Isend(p, c.sys.dflows[j], tagData, blk.Bytes(), nil)
		if err != nil {
			return err
		}
		waits = append(waits, ev)
		deliveries = append(deliveries, delivery{store: c.sys.stores[j], blk: blk})
	}
	if err := p.WaitAll(waits...); err != nil {
		return err
	}
	for _, d := range deliveries {
		if err := d.store.Put(key, d.blk); err != nil {
			return err
		}
	}
	return nil
}

// Commit marks the producer done with version.
func (c *Client) Commit(varName string, version int) {
	c.sys.gate.Commit(staging.Key{Var: varName, Version: version})
}

// Get pulls [offset, offset+count) of version from the dataflow ranks
// ('count' redistribution on the consumer edge) and pays the inverse
// transformation cost.
func (c *Client) Get(p *sim.Proc, varName string, version int, offset, count uint64) (Chunk, error) {
	key := staging.Key{Var: varName, Version: version}
	if reg := c.sys.m.Metrics; reg != nil {
		g := reg.SampledGauge(c.sys.name + "/gets_inflight")
		g.Add(1)
		defer g.Add(-1)
	}
	if err := c.sys.gate.WaitReady(p, key); err != nil {
		return Chunk{}, err
	}
	box, err := ndarray.NewBox([]uint64{offset}, []uint64{offset + count})
	if err != nil {
		return Chunk{}, err
	}
	var parts []ndarray.Block
	for j, worldRank := range c.sys.dflows {
		lo, hi, err := c.sys.dflowRange(varName, j)
		if err != nil {
			return Chunk{}, err
		}
		if max(lo, offset) >= min(hi, offset+count) {
			continue
		}
		qbox, err := ndarray.NewBox([]uint64{max(lo, offset)}, []uint64{min(hi, offset+count)})
		if err != nil {
			return Chunk{}, err
		}
		blocks, err := c.sys.stores[j].Query(key, qbox)
		if err != nil {
			return Chunk{}, fmt.Errorf("decaf get %s v%d: %w", varName, version, err)
		}
		var bytes int64
		for _, b := range blocks {
			bytes += b.Bytes()
		}
		src, err := c.sys.world.Rank(worldRank)
		if err != nil {
			return Chunk{}, err
		}
		if err := src.Send(p, c.rank.ID(), tagData, bytes, nil); err != nil {
			return Chunk{}, err
		}
		if _, err := c.rank.Recv(p, worldRank, tagData); err != nil {
			return Chunk{}, err
		}
		parts = append(parts, blocks...)
	}
	out, err := ndarray.Assemble(box, parts)
	if err != nil {
		return Chunk{}, fmt.Errorf("decaf get %s v%d: %w", varName, version, err)
	}
	if err := c.sys.m.Compute(p, float64(out.Bytes())/TransformBytesPerSec); err != nil {
		return Chunk{}, err
	}
	return Chunk{Offset: offset, Count: count, Data: out.Data}, nil
}

// Shutdown frees the dataflow stores.
func (s *System) Shutdown() {
	for i, store := range s.stores {
		store.Close()
		s.m.Free(s.world.Node(s.dflows[i]), store.Component(), "base", dflowBaseBytes)
	}
}
