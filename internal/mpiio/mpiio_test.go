package mpiio

import (
	"testing"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/sim"
)

func run(t *testing.T, writers int, bytes int64) sim.Time {
	t.Helper()
	e := sim.NewEngine()
	m, err := hpc.New(e, hpc.Titan(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(m, Config{Writers: writers})
	if err != nil {
		t.Fatal(err)
	}
	var latest sim.Time
	for i := 0; i < writers; i++ {
		i := i
		e.Spawn("writer", func(p *sim.Proc) error {
			if err := sys.WriteStep(p, m.Nodes[0], i, 1, bytes); err != nil {
				return err
			}
			sys.Commit("v", 1)
			if p.Now() > latest {
				latest = p.Now()
			}
			return nil
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return latest
}

func TestWriteTimeGrowsLinearlyWithWriters(t *testing.T) {
	const perWriter = 256 << 20 // large enough to dominate metadata time
	t8 := run(t, 8, perWriter)
	t64 := run(t, 64, perWriter)
	ratio := t64 / t8
	// Fixed OST pool: 8x the writers => ~8x the time (the Figure 2
	// MPI-IO trend). Metadata adds a little on top.
	if ratio < 6 || ratio > 10 {
		t.Fatalf("t64/t8 = %v, want ~8", ratio)
	}
}

func TestReadWaitsForWriters(t *testing.T) {
	e := sim.NewEngine()
	m, err := hpc.New(e, hpc.Titan(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(m, Config{Writers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var readAt sim.Time
	e.Spawn("writer", func(p *sim.Proc) error {
		if err := p.Sleep(5); err != nil {
			return err
		}
		if err := sys.WriteStep(p, m.Nodes[0], 0, 1, 1<<20); err != nil {
			return err
		}
		sys.Commit("v", 1)
		return nil
	})
	e.Spawn("reader", func(p *sim.Proc) error {
		if err := sys.ReadStep(p, m.Nodes[0], "v", 0, 1, 1<<20); err != nil {
			return err
		}
		readAt = p.Now()
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if readAt < 5 {
		t.Fatalf("read finished at %v, before writer committed", readAt)
	}
}

func TestConfigValidation(t *testing.T) {
	e := sim.NewEngine()
	m, err := hpc.New(e, hpc.Titan(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(m, Config{}); err == nil {
		t.Fatal("zero writers accepted")
	}
}

func TestCommitAndGate(t *testing.T) {
	e := sim.NewEngine()
	m, err := hpc.New(e, hpc.Titan(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(m, Config{Writers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Gate() == nil {
		t.Fatal("gate not exposed")
	}
	// Reader must wait for BOTH writers' commits.
	var readAt sim.Time
	for i := 0; i < 2; i++ {
		i := i
		e.Spawn("w", func(p *sim.Proc) error {
			if err := p.Sleep(sim.Time(i+1) * 2); err != nil {
				return err
			}
			if err := sys.WriteStep(p, m.Nodes[0], i, 1, 1<<10); err != nil {
				return err
			}
			sys.Commit("v", 1)
			return nil
		})
	}
	e.Spawn("r", func(p *sim.Proc) error {
		if err := sys.ReadStep(p, m.Nodes[0], "v", 0, 1, 1<<10); err != nil {
			return err
		}
		readAt = p.Now()
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if readAt < 4 {
		t.Fatalf("read at %v, before second writer committed at >=4", readAt)
	}
}

func TestZeroByteWrite(t *testing.T) {
	e := sim.NewEngine()
	m, err := hpc.New(e, hpc.Titan(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(m, Config{Writers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Spawn("w", func(p *sim.Proc) error {
		return sys.WriteStep(p, m.Nodes[0], 0, 1, 0)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
