package core

import (
	"fmt"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/transport"
	"github.com/imcstudy/imcstudy/internal/workflow"
)

// Fig12 regenerates Figure 12: end-to-end time of the Laplace workflow
// versus the number of DataSpaces servers, over sockets on Titan. The
// baseline maintains the paper's one-server-per-(32,16) ratio; further
// rows double it.
func Fig12(o Options) *Table {
	const simProcs, anaProcs = 64, 32
	t := &Table{
		ID:     "fig12",
		Title:  "End-to-end and staging time vs # of DataSpaces servers (sockets), Laplace (64,32) on Titan",
		Header: []string{"servers", "end-to-end s", "staging (put+get) s"},
	}
	counts := []int{2, 4, 8}
	if o.Quick {
		counts = []int{2, 4}
	}
	for _, n := range counts {
		res, err := workflow.Run(workflow.Config{
			Machine:       hpc.Titan(),
			Method:        workflow.MethodDataSpacesNative,
			Workload:      workflow.WorkloadLaplace,
			SimProcs:      simProcs,
			AnaProcs:      anaProcs,
			Steps:         o.steps(),
			Servers:       n,
			TransportMode: transport.ModeSocket,
		})
		if f := runFailure(res, err); f != nil {
			t.AddRow(count(n), failed(f), dash)
			continue
		}
		t.AddRow(count(n), seconds(res.EndToEnd), seconds(res.PutTime+res.GetTime))
	}
	e0, ok0 := t.value(0, 1)
	e1, ok1 := t.value(1, 1)
	if ok0 && ok1 {
		s0, _ := t.value(0, 2)
		s1, _ := t.value(1, 2)
		t.AddNote("doubling the servers improves end-to-end by %.1f%% (paper: ~5.4%%) and staging by %.1f%% (paper: up to 20.1%%)",
			100*(1-e1/e0), 100*(1-s1/s0))
	}
	return t
}

// Fig13 regenerates Figure 13: running the workflows in shared-node mode
// on Cori (simulation, analytics and staging colocated), versus the
// separate-node deployments of Figure 2. DataSpaces must fall back to
// sockets in shared mode (DRC node-secure); Decaf cannot run at all
// (no heterogeneous launch).
func Fig13(o Options) []*Table {
	var out []*Table
	for _, wl := range []workflow.WorkloadKind{workflow.WorkloadLAMMPS, workflow.WorkloadLaplace} {
		t := &Table{
			ID:     "fig13",
			Title:  fmt.Sprintf("Shared-node mode, %v (256,128) on Cori", wl),
			Header: []string{"method", "separate nodes s", "shared nodes s", "improvement"},
		}
		type series struct {
			name   string
			method workflow.Method
			mode   transport.Mode // transport in shared mode
		}
		for _, se := range []series{
			{"Flexpath (NNTI)", workflow.MethodFlexpath, transport.ModeRDMA},
			{"DataSpaces (socket in shared mode)", workflow.MethodDataSpacesNative, transport.ModeSocket},
			{"DataSpaces (uGNI shared: DRC denies)", workflow.MethodDataSpacesNative, transport.ModeRDMA},
			{"Decaf (no heterogeneous launch)", workflow.MethodDecaf, 0},
		} {
			base := workflow.Config{
				Machine:  hpc.Cori(),
				Method:   se.method,
				Workload: wl,
				SimProcs: 256,
				AnaProcs: 128,
				Steps:    o.steps(),
			}
			sep := endToEnd(workflow.Run(base))
			shared := base
			shared.SharedNode = true
			shared.TransportMode = se.mode
			sh := endToEnd(workflow.Run(shared))
			t.AddRow(label(se.name), sep, sh, derive(sep, sh, func(sep, sh float64) Cell {
				return percent(100 * (1 - sh/sep))
			}))
		}
		t.AddNote("paper: shared mode improves Flexpath by 12.7%%/17.0%% and DataSpaces by 11.0%%/8.9%% (LAMMPS/Laplace); uGNI shared mode is denied by DRC; Decaf cannot allocate resources (Finding 5)")
		out = append(out, t)
	}
	return out
}
