package core

import (
	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/workflow"
)

// GPUStudy extends the paper's Section IV-B portability assessment into
// a measurement: none of the studied libraries stage from GPU memory, so
// GPU-resident workflows pay PCIe copies around every put/get. The study
// quantifies that tax and the benefit of the NVLink-class GPU-direct
// staging the paper names as future work.
func GPUStudy(o Options) *Table {
	t := &Table{
		ID:     "gpustudy",
		Title:  "GPU-resident coupling (Section IV-B extension), Laplace (512,256) on Titan",
		Header: []string{"method", "cpu-resident s", "gpu host-staged s", "gpu-direct (NVLink) s", "host-staging tax"},
	}
	scale := Scale{512, 256}
	if o.Quick {
		scale = Scale{64, 32}
	}
	for _, method := range []workflow.Method{workflow.MethodFlexpath, workflow.MethodDataSpacesNative} {
		row := []Cell{label(method.String())}
		for _, mode := range []workflow.GPUMode{workflow.GPUOff, workflow.GPUHostStaged, workflow.GPUDirect} {
			servers := 0
			if method == workflow.MethodDataSpacesNative {
				servers = scale.Ana / 4 // the Fig 3 mitigation for 128 MB/proc on Titan
			}
			row = append(row, endToEnd(workflow.Run(workflow.Config{
				Machine:  hpc.Titan(),
				Method:   method,
				Workload: workflow.WorkloadLaplace,
				SimProcs: scale.Sim,
				AnaProcs: scale.Ana,
				Steps:    o.steps(),
				GPU:      mode,
				Servers:  servers,
			})))
		}
		t.AddRow(append(row, derive(row[1], row[2], func(cpu, staged float64) Cell {
			return increase(100 * (staged/cpu - 1))
		}))...)
	}
	t.AddNote("host staging funnels every rank's 128 MB through the node's 8 GB/s PCIe link; an NVLink-class direct path (50 GB/s) recovers most of the tax — the 'attractive area for future research' of Section IV-B")
	return t
}
