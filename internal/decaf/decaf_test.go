package decaf

import (
	"errors"
	"slices"
	"testing"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/metrics"
	"github.com/imcstudy/imcstudy/internal/mpi"
	"github.com/imcstudy/imcstudy/internal/sim"
)

// buildWorld creates a Titan machine and a world communicator sized for
// the graph: prod producers, dflow dataflow ranks, cons consumers.
func buildWorld(t *testing.T, spec hpc.Spec, prod, dflow, cons int) (*sim.Engine, *hpc.Machine, *Graph, *mpi.Comm) {
	t.Helper()
	e := sim.NewEngine()
	total := prod + dflow + cons
	m, err := hpc.New(e, spec, (total+3)/4)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGraph()
	g.AddNode("prod", RoleProducer, prod)
	g.AddNode("dflow", RoleDflow, dflow)
	g.AddNode("con", RoleConsumer, cons)
	g.AddEdge("prod", "dflow", RedistCount)
	g.AddEdge("dflow", "con", RedistCount)
	return e, m, g, worldComm(t, m, total)
}

// worldComm places size ranks onto the machine's nodes, 4 per node.
func worldComm(t *testing.T, m *hpc.Machine, size int) *mpi.Comm {
	t.Helper()
	nodes := make([]*hpc.Node, size)
	for i := range nodes {
		nodes[i] = m.Nodes[i/4]
	}
	world, err := mpi.NewCommExplicit(m, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return world
}

func TestPutGetRoundTripCountRedist(t *testing.T) {
	e, m, g, world := buildWorld(t, hpc.Titan(), 2, 2, 2)
	sys, err := Deploy(m, g, world, false)
	if err != nil {
		t.Fatal(err)
	}
	const perProd = 100
	sys.DefineVar("u", 2*perProd)

	for i := 0; i < 2; i++ {
		i := i
		c, err := sys.NewClient(sys.Ranks("prod")[i], "prod-"+string(rune('0'+i)), perProd*8)
		if err != nil {
			t.Fatal(err)
		}
		e.Spawn("producer", func(p *sim.Proc) error {
			data := make([]float64, perProd)
			for j := range data {
				data[j] = float64(i*perProd + j)
			}
			chunk := Chunk{Offset: uint64(i * perProd), Count: perProd, Data: data}
			if err := c.Put(p, "u", 1, chunk); err != nil {
				return err
			}
			c.Commit("u", 1)
			return nil
		})
	}
	for i := 0; i < 2; i++ {
		i := i
		c, err := sys.NewClient(sys.Ranks("con")[i], "con-"+string(rune('0'+i)), perProd*8)
		if err != nil {
			t.Fatal(err)
		}
		e.Spawn("consumer", func(p *sim.Proc) error {
			got, err := c.Get(p, "u", 1, uint64(i*perProd), perProd)
			if err != nil {
				return err
			}
			for j, v := range got.Data {
				if v != float64(i*perProd+j) {
					t.Errorf("consumer %d elem %d = %v", i, j, v)
					break
				}
			}
			return nil
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDflowMemorySevenTimesRaw(t *testing.T) {
	e, m, g, world := buildWorld(t, hpc.Titan(), 2, 1, 2)
	sys, err := Deploy(m, g, world, false)
	if err != nil {
		t.Fatal(err)
	}
	const elems = 1 << 20 // 8 MB per producer
	sys.DefineVar("u", 2*elems)
	for i := 0; i < 2; i++ {
		i := i
		c, err := sys.NewClient(sys.Ranks("prod")[i], "prod", elems*8)
		if err != nil {
			t.Fatal(err)
		}
		e.Spawn("producer", func(p *sim.Proc) error {
			return c.Put(p, "u", 1, Chunk{Offset: uint64(i * elems), Count: elems})
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	staged := m.Mem.Component("decaf-server-0").PeakOf("staging")
	raw := int64(2 * elems * 8)
	want := raw + int64(DflowOverheadFactor*float64(raw))
	if staged != want {
		t.Fatalf("dflow staging = %d, want %d (7x raw %d)", staged, want, raw)
	}
}

func TestColocatedNeedsHeterogeneous(t *testing.T) {
	// Cori (AllowHeterogeneous=false) must reject a colocated Decaf run.
	e := sim.NewEngine()
	m, err := hpc.New(e, hpc.Cori(), 2)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGraph()
	g.AddNode("prod", RoleProducer, 2)
	g.AddNode("dflow", RoleDflow, 2)
	g.AddNode("con", RoleConsumer, 2)
	g.AddEdge("prod", "dflow", RedistCount)
	world := worldComm(t, m, 6)
	if _, err := Deploy(m, g, world, true); !errors.Is(err, ErrHeterogeneous) {
		t.Fatalf("error = %v, want ErrHeterogeneous", err)
	}
	// Non-colocated deployment works.
	if _, err := Deploy(m, g, world, false); err != nil {
		t.Fatalf("non-colocated deploy: %v", err)
	}
}

func TestGraphValidation(t *testing.T) {
	e, m, _, world := buildWorld(t, hpc.Titan(), 1, 1, 1)
	_ = e
	bad := NewGraph()
	bad.AddNode("prod", RoleProducer, 1)
	bad.AddNode("dflow", RoleDflow, 1)
	bad.AddNode("con", RoleConsumer, 1)
	bad.AddEdge("prod", "nope", RedistCount)
	if _, err := Deploy(m, bad, world, false); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("error = %v, want ErrUnknownNode", err)
	}

	noDflow := NewGraph()
	noDflow.AddNode("prod", RoleProducer, 2)
	noDflow.AddNode("con", RoleConsumer, 1)
	if _, err := Deploy(m, noDflow, world, false); err == nil {
		t.Fatal("graph without dflow accepted")
	}

	sizeMismatch := NewGraph()
	sizeMismatch.AddNode("prod", RoleProducer, 99)
	if _, err := Deploy(m, sizeMismatch, world, false); err == nil {
		t.Fatal("world size mismatch accepted")
	}
}

func TestGetUndefinedVar(t *testing.T) {
	e, m, g, world := buildWorld(t, hpc.Titan(), 1, 1, 1)
	sys, err := Deploy(m, g, world, false)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sys.NewClient(sys.Ranks("prod")[0], "prod", 100)
	if err != nil {
		t.Fatal(err)
	}
	e.Spawn("p", func(p *sim.Proc) error {
		err := c.Put(p, "nope", 1, Chunk{Offset: 0, Count: 10})
		if !errors.Is(err, ErrUndefinedVar) {
			t.Errorf("error = %v, want ErrUndefinedVar", err)
		}
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUnevenCountRedistribution(t *testing.T) {
	// 10 elements over 3 dflows: ranges 4/3/3 tile exactly.
	e, m, g, world := buildWorld(t, hpc.Titan(), 1, 3, 1)
	sys, err := Deploy(m, g, world, false)
	if err != nil {
		t.Fatal(err)
	}
	_ = e
	sys.DefineVar("u", 10)
	var total uint64
	prev := uint64(0)
	for j := 0; j < 3; j++ {
		lo, hi, err := sys.dflowRange("u", j)
		if err != nil {
			t.Fatal(err)
		}
		if lo != prev {
			t.Fatalf("dflow %d starts at %d, want %d", j, lo, prev)
		}
		prev = hi
		total += hi - lo
	}
	if total != 10 {
		t.Fatalf("ranges cover %d, want 10", total)
	}
}

func TestShutdownFreesDflows(t *testing.T) {
	_, m, g, world := buildWorld(t, hpc.Titan(), 2, 2, 2)
	sys, err := Deploy(m, g, world, false)
	if err != nil {
		t.Fatal(err)
	}
	sys.Shutdown()
	for _, n := range m.Nodes {
		if n.Mem.Used() != 0 {
			t.Fatalf("node %s holds %d bytes after shutdown", n.Name(), n.Mem.Used())
		}
	}
}

// TestDflowNICWatchedOncePerNode places six dflow ranks on two nodes
// (ranks 2-3 share node 0 with the producers, ranks 4-7 fill node 1)
// and checks each node's NIC is recorded once, under its first dflow
// rank's label.
func TestDflowNICWatchedOncePerNode(t *testing.T) {
	e, m, g, world := buildWorld(t, hpc.Titan(), 2, 6, 2)
	m.Metrics = metrics.NewRegistry(e.Now)
	if _, err := Deploy(m, g, world, false); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"nic/decaf-server-0/in_util", "nic/decaf-server-0/out_util",
		"nic/decaf-server-2/in_util", "nic/decaf-server-2/out_util",
	}
	if got := m.Metrics.SeriesNames(); !slices.Equal(got, want) {
		t.Fatalf("series = %v, want %v", got, want)
	}
}

func TestChunkBytes(t *testing.T) {
	c := Chunk{Offset: 10, Count: 100}
	if c.Bytes() != 800 {
		t.Fatalf("Bytes = %d, want 800", c.Bytes())
	}
}

func TestGraphAccessors(t *testing.T) {
	g := NewGraph()
	g.AddNode("p", RoleProducer, 3)
	g.AddNode("d", RoleDflow, 2)
	if g.TotalRanks() != 5 {
		t.Fatalf("TotalRanks = %d", g.TotalRanks())
	}
	if len(g.Nodes()) != 2 || g.Nodes()[0].Name != "p" {
		t.Fatalf("Nodes = %+v", g.Nodes())
	}
}

func TestDflowCount(t *testing.T) {
	_, m, g, world := buildWorld(t, hpc.Titan(), 2, 3, 1)
	sys, err := Deploy(m, g, world, false)
	if err != nil {
		t.Fatal(err)
	}
	if sys.DflowCount() != 3 {
		t.Fatalf("DflowCount = %d, want 3", sys.DflowCount())
	}
	if len(sys.Ranks("prod")) != 2 || len(sys.Ranks("con")) != 1 {
		t.Fatal("rank ranges wrong")
	}
}
