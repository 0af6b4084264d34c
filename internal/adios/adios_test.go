package adios

import (
	"errors"
	"testing"

	"github.com/imcstudy/imcstudy/internal/dataspaces"
	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/ndarray"
	"github.com/imcstudy/imcstudy/internal/sim"
)

const sampleXML = `
<adios-config>
  <adios-group name="output" stats="off">
    <var name="atoms" dimensions="5,32,512000"/>
    <var name="energy" dimensions="32"/>
  </adios-group>
  <method group="output" method="DATASPACES">lock_type=2;hash_version=2;max_versions=1</method>
  <buffer size-MB="100"/>
</adios-config>`

func TestParseConfig(t *testing.T) {
	cfg, err := ParseConfig([]byte(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	g, ok := cfg.Groups["output"]
	if !ok {
		t.Fatal("group output missing")
	}
	if g.Method != MethodDataSpaces {
		t.Fatalf("method = %v, want DATASPACES", g.Method)
	}
	if len(g.Vars) != 2 || g.Vars[0].Name != "atoms" {
		t.Fatalf("vars = %+v", g.Vars)
	}
	want := []uint64{5, 32, 512000}
	for i, d := range g.Vars[0].Dims {
		if d != want[i] {
			t.Fatalf("dims = %v, want %v", g.Vars[0].Dims, want)
		}
	}
	if cfg.BufferSizeMB != 100 {
		t.Fatalf("buffer = %d MB, want 100", cfg.BufferSizeMB)
	}
	if g.Params != "lock_type=2;hash_version=2;max_versions=1" {
		t.Fatalf("params = %q", g.Params)
	}
}

func TestParseConfigErrors(t *testing.T) {
	cases := map[string]string{
		"bad method": `<adios-config><adios-group name="g"><var name="v" dimensions="4"/></adios-group><method group="g" method="WARP"/></adios-config>`,
		"bad group":  `<adios-config><adios-group name="g"><var name="v" dimensions="4"/></adios-group><method group="nope" method="MPI"/></adios-config>`,
		"no method":  `<adios-config><adios-group name="g"><var name="v" dimensions="4"/></adios-group></adios-config>`,
		"bad dims":   `<adios-config><adios-group name="g"><var name="v" dimensions="4,x"/></adios-group><method group="g" method="MPI"/></adios-config>`,
		"stats on":   `<adios-config><adios-group name="g" stats="on"><var name="v" dimensions="4"/></adios-group><method group="g" method="MPI"/></adios-config>`,
	}
	for name, doc := range cases {
		if _, err := ParseConfig([]byte(doc)); err == nil {
			t.Errorf("%s: parse accepted", name)
		}
	}
}

func TestWriterBuffersAndFlushes(t *testing.T) {
	e := sim.NewEngine()
	m, err := hpc.New(e, hpc.Titan(), 4)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := dataspaces.Deploy(m, dataspaces.Config{Servers: 2, Writers: 1}, m.Nodes[:1])
	if err != nil {
		t.Fatal(err)
	}
	global, err := ndarray.NewBox([]uint64{0}, []uint64{1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.DefineDims("v", global); err != nil {
		t.Fatal(err)
	}
	dsc, err := sys.NewClient(m.Nodes[2], "sim", "w0", 8192)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ParseConfig([]byte(`<adios-config><adios-group name="g"><var name="v" dimensions="1024"/></adios-group><method group="g" method="DATASPACES"/></adios-config>`))
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(m, m.Nodes[2], cfg, "g", "w0", dsc)
	if err != nil {
		t.Fatal(err)
	}
	rdc, err := sys.NewClient(m.Nodes[3], "analytics", "r0", 8192)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(rdc)

	e.Spawn("writer", func(p *sim.Proc) error {
		if err := w.Open(1); err != nil {
			return err
		}
		data := make([]float64, 1024)
		for i := range data {
			data[i] = float64(i)
		}
		blk, err := ndarray.NewDenseBlock(global, data)
		if err != nil {
			return err
		}
		if err := w.Write(p, "v", blk); err != nil {
			return err
		}
		// Buffered but not yet staged: ADIOS holds a copy.
		if got := m.Mem.Component("w0").CurrentOf("adios-buffer"); got != 8192 {
			t.Errorf("adios buffer = %d, want 8192", got)
		}
		if err := w.Close(p); err != nil {
			return err
		}
		if got := m.Mem.Component("w0").CurrentOf("adios-buffer"); got != 0 {
			t.Errorf("adios buffer after close = %d, want 0", got)
		}
		return nil
	})
	e.Spawn("reader", func(p *sim.Proc) error {
		r.ScheduleRead("v", global)
		blocks, err := r.PerformReads(p, 1)
		if err != nil {
			return err
		}
		if len(blocks) != 1 || blocks[0].Data[512] != 512 {
			t.Errorf("read blocks = %+v", blocks)
		}
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteRequiresOpen(t *testing.T) {
	e := sim.NewEngine()
	m, err := hpc.New(e, hpc.Titan(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ParseConfig([]byte(`<adios-config><adios-group name="g"><var name="v" dimensions="8"/></adios-group><method group="g" method="MPI"/></adios-config>`))
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(m, m.Nodes[0], cfg, "g", "w0", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ndarray.NewBox([]uint64{0}, []uint64{8})
	e.Spawn("p", func(p *sim.Proc) error {
		if err := w.Write(p, "v", ndarray.NewSyntheticBlock(b)); !errors.Is(err, ErrNotOpen) {
			t.Errorf("error = %v, want ErrNotOpen", err)
		}
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMethodKindString(t *testing.T) {
	if MethodDataSpaces.String() != "DATASPACES" || MethodMPI.String() != "MPI" {
		t.Fatal("method names wrong")
	}
}

func TestWriterDoubleOpenFails(t *testing.T) {
	e := sim.NewEngine()
	m, err := hpc.New(e, hpc.Titan(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ParseConfig([]byte(`<adios-config><adios-group name="g"><var name="v" dimensions="8"/></adios-group><method group="g" method="MPI"/></adios-config>`))
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(m, m.Nodes[0], cfg, "g", "w0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Open(1); err != nil {
		t.Fatal(err)
	}
	if err := w.Open(2); err == nil {
		t.Fatal("double open accepted")
	}
}

func TestNewWriterUnknownGroup(t *testing.T) {
	e := sim.NewEngine()
	m, err := hpc.New(e, hpc.Titan(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &Config{Groups: map[string]*GroupDecl{}}
	if _, err := NewWriter(m, m.Nodes[0], cfg, "nope", "w", nil); !errors.Is(err, ErrUnknownGroup) {
		t.Fatalf("error = %v, want ErrUnknownGroup", err)
	}
}
