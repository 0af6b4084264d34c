package core

import (
	"fmt"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/rdma"
	"github.com/imcstudy/imcstudy/internal/sim"
	"github.com/imcstudy/imcstudy/internal/workflow"
)

// Fig4 regenerates Figure 4: the synthetic probe that acquires RDMA
// memory regions of a given size until the acquire fails, reporting the
// maximum concurrency per request size. Below 512 KB the handler count
// (3,675) binds; above it the registered-memory capacity (1,843 MB)
// binds.
func Fig4(o Options) *Table {
	t := &Table{
		ID:     "fig4",
		Title:  "Cray RDMA acquire/release probe on Titan (max concurrent registrations per request size)",
		Header: []string{"request size", "max concurrent", "limited by"},
	}
	sizes := []int64{4 << 10, 64 << 10, 256 << 10, 512 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20}
	if o.Quick {
		sizes = []int64{64 << 10, 1 << 20, 16 << 20}
	}
	spec := hpc.Titan()
	for _, size := range sizes {
		e := sim.NewEngine()
		dom := rdma.NewDomain(e, "probe", spec.RDMAMemBytes, spec.RDMAMaxHandles)
		var regs []*rdma.Region
		n := 0
		limit := ""
		for {
			r, err := dom.Register(size)
			if err != nil {
				limit = workflow.FailureClass(err)
				break
			}
			regs = append(regs, r)
			n++
		}
		for _, r := range regs {
			r.Deregister()
		}
		t.AddRow(label(sizeLabel(size)), count(n), label(limit))
	}
	t.AddNote("paper: at most 3,675 handlers for requests < 512 KB; 1,843 MB capacity bound above")
	return t
}

func sizeLabel(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%d MB", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%d KB", b>>10)
	default:
		return fmt.Sprintf("%d B", b)
	}
}
