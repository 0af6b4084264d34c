// Command imcbench regenerates the paper's tables and figures on the
// simulated testbed.
//
// Usage:
//
//	imcbench [-quick] [-steps N] [-chart] <experiment> [<experiment>...]
//	imcbench all
//	imcbench chaos [-smoke] [-out report.json] [-csv cells.csv]
//
// Experiments: table1 table2 table3 table4 table5 fig2a fig2b fig3 fig4
// fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 mitigations
// ablations gpustudy resilience resilience-cost
//
// The -cpuprofile, -memprofile and -traceprofile flags wrap the selected
// experiments in the Go runtime's profilers, for digging below the event
// sites that `imcprof report` names (which Go function inside a hot
// site, where the allocations come from). They profile this process —
// the simulator — never the modelled system.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sort"
	"time"

	"github.com/imcstudy/imcstudy"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "imcbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 && args[0] == "chaos" {
		return runChaos(args[1:])
	}
	fs := flag.NewFlagSet("imcbench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "trim sweeps to a few representative points")
	steps := fs.Int("steps", 3, "coupling steps per run")
	chart := fs.Bool("chart", false, "also render each table's final column as ASCII bars")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to `file`")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile at exit to `file`")
	traceProfile := fs.String("traceprofile", "", "write a runtime execution trace to `file`")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stop, err := startProfiling(*cpuProfile, *memProfile, *traceProfile)
	if err != nil {
		return err
	}
	defer stop()
	o := imcstudy.ExperimentOptions{Quick: *quick, Steps: *steps}
	reg := registry(o)

	names := fs.Args()
	if len(names) == 0 {
		return fmt.Errorf("no experiment given; known: %v (or 'all')", known(reg))
	}
	if len(names) == 1 && names[0] == "all" {
		names = known(reg)
	}
	for _, name := range names {
		gen, ok := reg[name]
		if !ok {
			return fmt.Errorf("unknown experiment %q; known: %v", name, known(reg))
		}
		start := time.Now()
		tables := gen()
		if err := imcstudy.RenderTables(os.Stdout, tables); err != nil {
			return err
		}
		if *chart {
			if err := imcstudy.RenderCharts(os.Stdout, tables); err != nil {
				return err
			}
		}
		fmt.Printf("-- %s generated in %.1fs --\n\n", name, time.Since(start).Seconds())
	}
	return nil
}

// startProfiling turns on the requested runtime profilers and returns
// the function that stops them and writes the at-exit profiles.
func startProfiling(cpuFile, memFile, traceFile string) (stop func(), err error) {
	var stops []func()
	stop = func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	fail := func(err error) (func(), error) {
		stop()
		return nil, err
	}
	if cpuFile != "" {
		f, err := os.Create(cpuFile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return fail(err)
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			return fail(err)
		}
		stops = append(stops, func() {
			trace.Stop()
			f.Close()
		})
	}
	if memFile != "" {
		stops = append(stops, func() {
			f, err := os.Create(memFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "imcbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "imcbench: memprofile:", err)
			}
		})
	}
	return stop, nil
}

// registry maps experiment names to generators.
func registry(o imcstudy.ExperimentOptions) map[string]func() []*imcstudy.ResultTable {
	one := func(f func(imcstudy.ExperimentOptions) *imcstudy.ResultTable) func() []*imcstudy.ResultTable {
		return func() []*imcstudy.ResultTable { return []*imcstudy.ResultTable{f(o)} }
	}
	many := func(f func(imcstudy.ExperimentOptions) []*imcstudy.ResultTable) func() []*imcstudy.ResultTable {
		return func() []*imcstudy.ResultTable { return f(o) }
	}
	return map[string]func() []*imcstudy.ResultTable{
		"table1":          one(imcstudy.Table1),
		"table2":          one(imcstudy.Table2),
		"table3":          one(imcstudy.Table3),
		"table4":          one(imcstudy.Table4),
		"table5":          one(imcstudy.Table5),
		"fig2a":           many(imcstudy.Fig2a),
		"fig2b":           many(imcstudy.Fig2b),
		"fig3":            one(imcstudy.Fig3),
		"fig4":            one(imcstudy.Fig4),
		"fig5":            many(imcstudy.Fig5),
		"fig6":            one(imcstudy.Fig6),
		"fig7":            one(imcstudy.Fig7),
		"fig8":            one(imcstudy.Fig8),
		"fig9":            one(imcstudy.Fig9),
		"fig10":           many(imcstudy.Fig10),
		"fig11":           one(imcstudy.Fig11),
		"fig12":           one(imcstudy.Fig12),
		"fig13":           many(imcstudy.Fig13),
		"mitigations":     one(imcstudy.Mitigations),
		"ablations":       many(imcstudy.Ablations),
		"gpustudy":        one(imcstudy.GPUStudy),
		"resilience":      one(imcstudy.Resilience),
		"resilience-cost": one(imcstudy.ResilienceCost),
	}
}

func known(reg map[string]func() []*imcstudy.ResultTable) []string {
	names := make([]string, 0, len(reg))
	for name := range reg {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
