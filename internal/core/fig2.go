package core

import (
	"fmt"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/workflow"
)

// Fig2 regenerates one panel of Figure 2: end-to-end workflow time per
// method across processor scales on one machine.
func Fig2(workload workflow.WorkloadKind, machine hpc.Spec, o Options) *Table {
	scales := Fig2Scales(o)
	t := &Table{
		ID: "fig2",
		Title: fmt.Sprintf("End-to-end time of %v on %s (seconds, virtual; columns are (sim,ana) scales)",
			workload, machine.Name),
	}
	t.Header = append([]string{"method"}, scaleHeaders(scales)...)
	for _, method := range Fig2Methods(o) {
		row := []Cell{label(method.String())}
		for _, sc := range scales {
			servers := 0
			if workload == workflow.WorkloadLaplace && machine.Name == "Titan" &&
				(method == workflow.MethodDataSpacesADIOS || method == workflow.MethodDataSpacesNative) {
				// The 128 MB/processor Laplace output exceeds Titan's
				// registered-memory budget under the default 16-writers-per-
				// server provisioning; the paper doubles the staging servers
				// to make these runs succeed (Section III-B1, Figure 3).
				servers = sc.Ana / 4
				if servers < 1 {
					servers = 1
				}
			}
			row = append(row, endToEnd(workflow.Run(workflow.Config{
				Machine:  machine,
				Method:   method,
				Workload: workload,
				SimProcs: sc.Sim,
				AnaProcs: sc.Ana,
				Steps:    o.steps(),
				Servers:  servers,
			})))
		}
		t.AddRow(row...)
	}
	t.AddNote("LAMMPS stages 20 MB/processor, Laplace 128 MB/processor (Table II); %d coupling steps", o.steps())
	t.AddNote("expected shape: in-memory methods scale; MPI-IO grows with scale; DataSpaces degrades on Titan (N-to-1); DataSpaces/DIMES fail at (8192,4096)")
	return t
}

// Fig2a regenerates Figure 2a (LAMMPS on Titan and Cori).
func Fig2a(o Options) []*Table {
	var out []*Table
	for _, m := range Machines() {
		out = append(out, Fig2(workflow.WorkloadLAMMPS, m, o))
	}
	return out
}

// Fig2b regenerates Figure 2b (Laplace on Titan and Cori).
func Fig2b(o Options) []*Table {
	var out []*Table
	for _, m := range Machines() {
		out = append(out, Fig2(workflow.WorkloadLaplace, m, o))
	}
	return out
}

func scaleHeaders(scales []Scale) []string {
	out := make([]string, len(scales))
	for i, s := range scales {
		out[i] = s.String()
	}
	return out
}
