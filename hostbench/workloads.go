package main

import (
	"fmt"
	"time"

	"github.com/imcstudy/imcstudy/internal/core"
	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/synthetic"
	"github.com/imcstudy/imcstudy/internal/workflow"
)

// workload is one named benchmark input. Its sizes are the single
// definition that the timed run, the set-up replay and every layer
// driver read, so a driver always models the run it claims to.
type workload struct {
	name   string
	why    string
	method workflow.Method
	layout synthetic.Layout
	// sim and ana are the default rank counts; steps the coupling steps.
	sim, ana, steps int
	// simStep is how far a seed variant moves the writer count; 0 keeps
	// it fixed.
	simStep int
	// telemetry turns Metrics and Trace on and encodes both JSONs, as
	// imcreport does.
	telemetry bool
	// fig2 replaces the single run by core.Fig2a + core.Fig2b in Quick
	// mode (72 runs over both machines and both applications).
	fig2 bool
}

var workloads = []workload{
	{
		name: "ds-nto1", method: workflow.MethodDataSpacesNative, layout: synthetic.LayoutMismatch,
		sim: 340, ana: 170, steps: 12, simStep: 1, telemetry: true,
		why: "DataSpaces N-to-1 pathology (Fig 8/9): rank-side client, transport and staging code hot; telemetry on and encoded",
	},
	{
		name: "ds-matched", method: workflow.MethodDataSpacesNative, layout: synthetic.LayoutMatched,
		sim: 682, ana: 342, steps: 8,
		why: "same method, N-to-N layout: flows spread over many links, so the fair-share solver dominates",
	},
	{
		name: "dimes-10k", method: workflow.MethodDIMESNative, layout: synthetic.LayoutMismatch,
		sim: 6826, ana: 3414, steps: 2, simStep: 16,
		why: "10k ranks: DIMES Get scans every writer, largest set-up and resident memory",
	},
	{
		name: "fig2-quick", fig2: true, steps: 2,
		why: "Fig 2 quick sweep: Flexpath, Decaf, MPI-IO/Lustre, Cori DRC and both applications",
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// variant maps a seed onto one of three writer counts: the default and
// one or two simSteps below it. A step is at most 0.3% of the writers
// (one rank of ds-nto1, one Titan node of dimes-10k) and moves their
// host cost by less than the run-to-run noise; never going above the
// default keeps every DIMES reader of dimes-10k covering at most two
// writers. ds-matched keeps its writer count: under the N-to-N layout
// the solver's cost jumps with the exact count (682 writers run in half
// the host time of 674, 680 or 686), so a moved count is another
// workload. fig2-quick's sweep is fixed by core's Quick options; its
// seed picks only the order of the Fig 2a and Fig 2b calls.
func variant(seed int64) int {
	v := int(seed % 3)
	if v < 0 {
		v += 3
	}
	return -v
}

// config is the workflow configuration of one variant (zero value for
// fig2-quick, whose configurations come from core's sweep).
func (w workload) config(v int) workflow.Config {
	if w.fig2 {
		return workflow.Config{}
	}
	return workflow.Config{
		Machine:         hpc.Titan(),
		Method:          w.method,
		Workload:        workflow.WorkloadSynthetic,
		SimProcs:        w.sim + v*w.simStep,
		AnaProcs:        w.ana,
		Steps:           w.steps,
		SyntheticLayout: w.layout,
		Metrics:         w.telemetry,
		Trace:           w.telemetry,
	}
}

// configs are the workflow configurations the variant runs: its one
// configuration, or fig2-quick's 72 cells.
func (w workload) configs(v int) []workflow.Config {
	if w.fig2 {
		return w.fig2Cells()
	}
	return []workflow.Config{w.config(v)}
}

// refKey names a variant's entry in the reference file.
func (w workload) refKey(v int) string {
	if w.fig2 {
		return w.name
	}
	return fmt.Sprintf("%s/sim=%d", w.name, w.config(v).SimProcs)
}

// fig2Options are the options fig2-quick passes to core.Fig2a/Fig2b.
func (w workload) fig2Options() core.Options { return core.Options{Quick: true, Steps: w.steps} }

// fig2Cells returns the configurations core.Fig2a then core.Fig2b run,
// in table order: workload, machine, method, then scale.
func (w workload) fig2Cells() []workflow.Config {
	o := w.fig2Options()
	var out []workflow.Config
	for _, app := range []workflow.WorkloadKind{workflow.WorkloadLAMMPS, workflow.WorkloadLaplace} {
		for _, m := range core.Machines() {
			for _, method := range core.Fig2Methods(o) {
				for _, sc := range core.Fig2Scales(o) {
					servers := 0
					// core.Fig2 doubles the DataSpaces servers for Laplace on
					// Titan (Section III-B1).
					if app == workflow.WorkloadLaplace && m.Name == "Titan" &&
						(method == workflow.MethodDataSpacesADIOS || method == workflow.MethodDataSpacesNative) {
						servers = max(sc.Ana/4, 1)
					}
					out = append(out, workflow.Config{
						Machine: m, Method: method, Workload: app,
						SimProcs: sc.Sim, AnaProcs: sc.Ana, Steps: o.Steps, Servers: servers,
					})
				}
			}
		}
	}
	return out
}

// driverConfig is the configuration the layer drivers are sized from:
// the variant itself, or for fig2-quick its largest Quick scale staged
// through DataSpaces with the synthetic N-to-1 layout (the LAMMPS and
// Laplace decompositions are internal to the workflow package).
func (w workload) driverConfig(v int) workflow.Config {
	if !w.fig2 {
		return w.config(v)
	}
	scales := core.Fig2Scales(w.fig2Options())
	top := scales[len(scales)-1]
	return workflow.Config{
		Machine: hpc.Titan(), Method: workflow.MethodDataSpacesNative, Workload: workflow.WorkloadSynthetic,
		SimProcs: top.Sim, AnaProcs: top.Ana, Steps: w.steps, SyntheticLayout: synthetic.LayoutMismatch,
	}
}

// telemetryConfig is the run the telemetry metrics are measured on: the
// workload itself when it runs with telemetry, else two steps of its
// driver configuration, so every workload reports what telemetry costs
// at its scale without multiplying the length of its traced run.
func (w workload) telemetryConfig(v int) workflow.Config {
	if w.telemetry {
		return w.config(v)
	}
	cfg := w.driverConfig(v)
	cfg.Steps = min(cfg.Steps, 2)
	return cfg
}

// runResult is what one timed pass over a workload produced.
type runResult struct {
	got  reference
	wall time.Duration
	runs int
}

// runUntraced executes the workload as its users would: through the
// public entry points, profiler off.
func runUntraced(w workload, v int, seed int64) (runResult, error) {
	if w.fig2 {
		o := w.fig2Options()
		figs := []func(core.Options) []*core.Table{core.Fig2a, core.Fig2b}
		if seed%2 != 0 {
			figs[0], figs[1] = figs[1], figs[0]
		}
		start := time.Now()
		first := figs[0](o)
		second := figs[1](o)
		wall := time.Since(start)
		if seed%2 != 0 {
			first, second = second, first
		}
		var got reference
		for _, t := range append(first, second...) {
			for _, row := range t.Rows {
				got.Cells = append(got.Cells, row[1:]...)
			}
		}
		return runResult{got: got, wall: wall, runs: len(got.Cells)}, nil
	}
	cfg := w.config(v)
	start := time.Now()
	res, err := workflow.Run(cfg)
	if err != nil {
		return runResult{}, fmt.Errorf("%s: %w", w.refKey(v), err)
	}
	if cfg.Metrics {
		if err := encodeTelemetry(res); err != nil {
			return runResult{}, err
		}
	}
	return runResult{got: outputsOf(res), wall: time.Since(start), runs: 1}, nil
}

// encodeTelemetry renders both telemetry JSONs the way imcreport does.
func encodeTelemetry(res workflow.Result) error {
	if _, err := res.Metrics.EncodeJSON(); err != nil {
		return fmt.Errorf("metrics JSON: %w", err)
	}
	if _, err := res.TraceJSON(); err != nil {
		return fmt.Errorf("trace JSON: %w", err)
	}
	return nil
}

// runConfigs runs configurations one by one through workflow.Run,
// timing each run and, for runs with telemetry on, the encoding of both
// telemetry JSONs. The traced pass uses it with Profile on.
func runConfigs(cfgs []workflow.Config) (results []workflow.Result, walls []time.Duration, encode time.Duration, err error) {
	for _, cfg := range cfgs {
		start := time.Now()
		res, err := workflow.Run(cfg)
		walls = append(walls, time.Since(start))
		if err != nil {
			return nil, nil, 0, fmt.Errorf("%v %s %d+%d: %w", cfg.Method, cfg.Machine.Name, cfg.SimProcs, cfg.AnaProcs, err)
		}
		if cfg.Metrics {
			t0 := time.Now()
			if err := encodeTelemetry(res); err != nil {
				return nil, nil, 0, err
			}
			encode += time.Since(t0)
		}
		// Keep only what the report reads: the journal and the outputs.
		results = append(results, workflow.Result{
			EndToEnd: res.EndToEnd, PutTime: res.PutTime, GetTime: res.GetTime,
			ServerPeakBytes: res.ServerPeakBytes, Failed: res.Failed, Profile: res.Profile,
		})
	}
	return results, walls, encode, nil
}
