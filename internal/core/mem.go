package core

import (
	"fmt"

	"github.com/imcstudy/imcstudy/internal/dataspaces"
	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/metrics"
	"github.com/imcstudy/imcstudy/internal/workflow"
)

// fig5Methods are the libraries profiled in Figure 5.
func fig5Methods() []workflow.Method {
	return []workflow.Method{
		workflow.MethodDataSpacesNative,
		workflow.MethodDIMESNative,
		workflow.MethodFlexpath,
		workflow.MethodDecaf,
	}
}

// Fig5 regenerates Figure 5: per-processor memory of the LAMMPS and
// Laplace workflows on Cori, broken into the simulation rank, analytics
// rank and staging server peaks, per library, plus the memory-vs-time
// series the figure actually plots (for the DataSpaces run).
func Fig5(o Options) []*Table {
	var out []*Table
	for _, wl := range []workflow.WorkloadKind{workflow.WorkloadLAMMPS, workflow.WorkloadLaplace} {
		t := &Table{
			ID: "fig5",
			Title: fmt.Sprintf("Memory per processor, %v on Cori (MB; 20 MB/proc LAMMPS, 128 MB/proc Laplace)",
				wl),
			Header: []string{"library", "sim rank", "  compute", "  library", "analytics rank", "server (max)"},
		}
		for _, method := range fig5Methods() {
			res, err := workflow.Run(workflow.Config{
				Machine:  hpc.Cori(),
				Method:   method,
				Workload: wl,
				SimProcs: 32,
				AnaProcs: 16,
				Steps:    o.steps(),
			})
			if f := runFailure(res, err); f != nil {
				t.AddRow(label(method.String()), failed(f))
				continue
			}
			sim0 := res.Tracker.Component("sim-0")
			t.AddRow(label(method.String()),
				mb(res.SimPeakBytes),
				mb(sim0.PeakOf("compute")),
				mb(sim0.PeakOf("library")+sim0.PeakOf("adios-buffer")+sim0.PeakOf("staging")),
				mb(res.AnaPeakBytes),
				mb(res.ServerPeakBytes),
			)
		}
		t.AddNote("paper: DS/DIMES/Flexpath LAMMPS ranks ~400 MB (173 compute + 227 library); Decaf ~40%% more; DataSpaces and Decaf servers stage up to ~560 MB")
		out = append(out, t)
	}
	out = append(out, fig5Series(o))
	return out
}

// fig5Series samples the tracked memory of one simulation rank, one
// analytics rank and one staging server over virtual time (the actual
// curves of Figure 5a) for the DataSpaces LAMMPS run on Cori.
func fig5Series(o Options) *Table {
	t := &Table{
		ID:     "fig5",
		Title:  "Memory vs time, LAMMPS via DataSpaces on Cori (MB sampled per virtual second)",
		Header: []string{"t (s)", "sim-0", "ana-0", "server-0"},
	}
	res, err := workflow.Run(workflow.Config{
		Machine:  hpc.Cori(),
		Method:   workflow.MethodDataSpacesNative,
		Workload: workflow.WorkloadLAMMPS,
		SimProcs: 32,
		AnaProcs: 16,
		Steps:    o.steps(),
		Metrics:  true,
	})
	if f := runFailure(res, err); f != nil {
		t.AddRow(dash, failed(f), dash, dash)
		return t
	}
	comps := []string{"sim-0", "ana-0", "dataspaces-server-0"}
	buckets := 12
	for b := 0; b <= buckets; b++ {
		at := res.EndToEnd * float64(b) / float64(buckets)
		row := []Cell{decimal(at, 1)}
		for _, name := range comps {
			row = append(row, mb(sampleAt(res.Metrics.Series("mem/"+name).View(), at)))
		}
		t.AddRow(row...)
	}
	t.AddNote("the server's jump at t=0 is its creation spike (the 40 s spike of Fig 5a lands at t=0 here: servers deploy before the clock starts); rank memory steps up at the first put")
	return t
}

// sampleAt returns the last sample value at or before time at, in bytes.
func sampleAt(series []metrics.Sample, at float64) int64 {
	var v float64
	for _, s := range series {
		if s.T > at {
			break
		}
		v = s.V
	}
	return int64(v)
}

// Fig6 regenerates Figure 6: staging-server memory versus problem size
// for the Laplace workflow at (64, 32) on Titan, comparing DataSpaces
// under the Hilbert-SFC index (hash_version=1) against DIMES, whose
// servers hold only metadata.
func Fig6(o Options) *Table {
	t := &Table{
		ID:     "fig6",
		Title:  "Staging-server memory vs problem size, Laplace (64,32) on Titan (MB per server)",
		Header: []string{"per-proc size", "DataSpaces(SFC)", "DIMES"},
	}
	sizes := []fig3Size{{256, 256}, {1024, 1024}, {2048, 2048}, {4096, 2048}, {4096, 4096}}
	if o.Quick {
		sizes = []fig3Size{{256, 256}, {2048, 2048}, {4096, 2048}}
	}
	for _, size := range sizes {
		row := []Cell{label(size.label())}
		for _, method := range []workflow.Method{workflow.MethodDataSpacesNative, workflow.MethodDIMESNative} {
			hash := dataspaces.HashVersion(0)
			if method == workflow.MethodDataSpacesNative {
				hash = dataspaces.HashSFC
			}
			res, err := workflow.Run(workflow.Config{
				Machine:     hpc.Titan(),
				Method:      method,
				Workload:    workflow.WorkloadLaplace,
				SimProcs:    64,
				AnaProcs:    32,
				Steps:       o.steps(),
				LaplaceRows: size.rows,
				LaplaceCols: size.cols,
				Servers:     4, // one staging server per 16 simulation procs
				Hash:        hash,
			})
			if f := runFailure(res, err); f != nil {
				row = append(row, failed(f))
			} else {
				row = append(row, mb(res.ServerPeakBytes))
			}
		}
		t.AddRow(row...)
	}
	t.AddNote("paper: the padded 2^k SFC index space drives DataSpaces to ~6 GB/server at 64 MB/proc, while DIMES servers stay ~154 MB; the 128 MB point exhausts node memory")
	return t
}

// Fig7 regenerates Figure 7: the memory breakdown of the Laplace workflow
// at (64, 32), by component and allocation kind.
func Fig7(o Options) *Table {
	t := &Table{
		ID:     "fig7",
		Title:  "Memory breakdown, Laplace (64,32) (MB; per component kind)",
		Header: []string{"library", "component", "kind", "peak MB"},
	}
	for _, method := range []workflow.Method{workflow.MethodDataSpacesNative, workflow.MethodDecaf} {
		res, err := workflow.Run(workflow.Config{
			Machine:  hpc.Titan(),
			Method:   method,
			Workload: workflow.WorkloadLaplace,
			SimProcs: 64,
			AnaProcs: 32,
			Steps:    o.steps(),
			Servers:  fig7Servers(method),
		})
		if f := runFailure(res, err); f != nil {
			t.AddRow(label(method.String()), dash, dash, failed(f))
			continue
		}
		for _, compName := range []string{"sim-0", method.ServerPrefix() + "-0"} {
			comp := res.Tracker.Component(compName)
			for _, kind := range comp.Kinds() {
				t.AddRow(label(method.String()), label(compName), label(kind), mb(comp.PeakOf(kind)))
			}
		}
	}
	t.AddNote("paper: a DataSpaces server staging 2 GB uses >2 GB (extra buffering); a Decaf dataflow rank staging 256 MB raw uses ~1.8 GB (7x, Finding 2)")
	return t
}

func fig7Servers(method workflow.Method) int {
	if method == workflow.MethodDataSpacesNative {
		// Doubled servers so the 128 MB/proc run completes on Titan.
		return 8
	}
	return 0
}

// Fig11 regenerates Figure 11: Decaf dataflow memory and end-to-end time
// versus the number of Decaf servers, Laplace (64, 32) on Titan.
func Fig11(o Options) *Table {
	t := &Table{
		ID:     "fig11",
		Title:  "Decaf: memory and time vs number of servers, Laplace (64,32) on Titan",
		Header: []string{"servers", "per-server peak MB", "end-to-end s"},
	}
	counts := []int{8, 16, 32, 64}
	if o.Quick {
		counts = []int{8, 32}
	}
	for _, n := range counts {
		res, err := workflow.Run(workflow.Config{
			Machine:  hpc.Titan(),
			Method:   workflow.MethodDecaf,
			Workload: workflow.WorkloadLaplace,
			SimProcs: 64,
			AnaProcs: 32,
			Steps:    o.steps(),
			Servers:  n,
		})
		if f := runFailure(res, err); f != nil {
			t.AddRow(count(n), failed(f), dash)
			continue
		}
		t.AddRow(count(n), mb(res.ServerPeakBytes), seconds(res.EndToEnd))
	}
	last := len(t.Rows) - 1
	mem0, ok0 := t.value(0, 1)
	mem1, ok1 := t.value(last, 1)
	if ok0 && ok1 && mem0 > 0 && mem1 > 0 {
		e0, _ := t.value(0, 2)
		e1, _ := t.value(last, 2)
		t.AddNote("per-server memory drops %.1f%% from %d to %d servers (paper: 83.5%%); end-to-end changes %.1f%% (paper: 5.5%%)",
			100*(1-mem1/mem0), counts[0], counts[last], 100*(1-e1/e0))
	}
	return t
}
