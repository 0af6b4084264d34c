package core

import (
	"fmt"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/transport"
	"github.com/imcstudy/imcstudy/internal/workflow"
)

// Fig10 regenerates Figure 10: end-to-end time over sockets versus the
// native RDMA paths on Titan (Flexpath over NNTI vs TCP, DataSpaces over
// uGNI vs TCP), plus the socket-exhaustion boundary beyond (1024, 512).
func Fig10(o Options) []*Table {
	var out []*Table
	for _, wl := range []workflow.WorkloadKind{workflow.WorkloadLAMMPS, workflow.WorkloadLaplace} {
		t := &Table{
			ID:     "fig10",
			Title:  fmt.Sprintf("Socket vs RDMA end-to-end time, %v on Titan (seconds)", wl),
			Header: []string{"method/transport"},
		}
		scales := []Scale{{128, 64}, {512, 256}, {1024, 512}, {2048, 1024}}
		if o.Quick {
			scales = []Scale{{128, 64}, {512, 256}}
		}
		t.Header = append(t.Header, scaleHeaders(scales)...)
		type series struct {
			name   string
			method workflow.Method
			mode   transport.Mode
		}
		for _, se := range []series{
			{"Flexpath/NNTI", workflow.MethodFlexpath, transport.ModeRDMA},
			{"Flexpath/socket", workflow.MethodFlexpath, transport.ModeSocket},
			{"DataSpaces/uGNI", workflow.MethodDataSpacesNative, transport.ModeRDMA},
			{"DataSpaces/socket", workflow.MethodDataSpacesNative, transport.ModeSocket},
		} {
			row := []string{se.name}
			for _, sc := range scales {
				servers := 0
				if wl == workflow.WorkloadLaplace && se.method == workflow.MethodDataSpacesNative &&
					se.mode == transport.ModeRDMA {
					servers = sc.Ana / 4 // the doubled-server mitigation (Fig 3)
				}
				res, err := workflow.Run(workflow.Config{
					Machine:       hpc.Titan(),
					Method:        se.method,
					Workload:      wl,
					SimProcs:      sc.Sim,
					AnaProcs:      sc.Ana,
					Steps:         o.steps(),
					TransportMode: se.mode,
					Servers:       servers,
				})
				switch {
				case err != nil:
					row = append(row, "ERR")
				case res.Failed:
					row = append(row, failCell(res.FailErr))
				default:
					row = append(row, seconds(res.EndToEnd))
				}
			}
			t.AddRow(row...)
		}
		t.AddNote("paper: RDMA beats sockets (Flexpath +15.8%%/+3.82%%, DataSpaces +8.4%%/+17.3%% for LAMMPS/Laplace); DataSpaces sockets exhaust descriptors beyond (1024,512)")
		out = append(out, t)
	}
	return out
}
