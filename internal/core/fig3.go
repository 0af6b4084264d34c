package core

import (
	"fmt"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/workflow"
)

// fig3Size is one problem-size point of Figure 3.
type fig3Size struct {
	rows, cols int
}

func (s fig3Size) label() string {
	mbPerProc := float64(s.rows) * float64(s.cols) * 8 / (1 << 20)
	if mbPerProc < 1 {
		return fmt.Sprintf("%dx%d(%.0fKB)", s.rows, s.cols, mbPerProc*1024)
	}
	return fmt.Sprintf("%dx%d(%.0fMB)", s.rows, s.cols, mbPerProc)
}

// fig3Sizes spans 512 KB to 128 MB per processor (the paper's sweep).
func fig3Sizes(o Options) []fig3Size {
	if o.Quick {
		return []fig3Size{{256, 256}, {1024, 1024}, {4096, 4096}}
	}
	return []fig3Size{
		{256, 256}, {512, 512}, {1024, 1024},
		{2048, 2048}, {4096, 2048}, {4096, 4096},
	}
}

// Fig3 regenerates Figure 3: problem-size scaling of the Laplace workflow
// at (1024, 512) on Titan. DataSpaces and DIMES run out of RDMA memory at
// the 128 MB point under the default server provisioning; a "2x servers"
// series shows the paper's mitigation.
func Fig3(o Options) *Table {
	const simProcs, anaProcs = 1024, 512
	machine := hpc.Titan()
	sizes := fig3Sizes(o)
	t := &Table{
		ID:    "fig3",
		Title: "Problem-size scaling, Laplace (1024,512) on Titan (seconds; columns are per-processor grid sizes)",
	}
	header := []string{"method"}
	for _, s := range sizes {
		header = append(header, s.label())
	}
	t.Header = header

	type series struct {
		name    string
		method  workflow.Method
		servers int
	}
	all := []series{
		{"Flexpath", workflow.MethodFlexpath, 0},
		{"DataSpaces", workflow.MethodDataSpacesNative, 0},
		{"DataSpaces 2x servers", workflow.MethodDataSpacesNative, anaProcs / 4},
		{"DIMES", workflow.MethodDIMESNative, 0},
		{"Decaf", workflow.MethodDecaf, 0},
		{"MPI-IO", workflow.MethodMPIIO, 0},
	}
	for _, se := range all {
		row := []Cell{label(se.name)}
		for _, size := range sizes {
			row = append(row, endToEnd(workflow.Run(workflow.Config{
				Machine:     machine,
				Method:      se.method,
				Workload:    workflow.WorkloadLaplace,
				SimProcs:    simProcs,
				AnaProcs:    anaProcs,
				Steps:       o.steps(),
				LaplaceRows: size.rows,
				LaplaceCols: size.cols,
				Servers:     se.servers,
			})))
		}
		t.AddRow(row...)
	}
	t.AddNote("expected shape: time grows ~proportionally with problem size; DataSpaces hits out-of-RDMA at 128 MB/proc unless the staging servers are doubled (Section III-B1)")
	return t
}
