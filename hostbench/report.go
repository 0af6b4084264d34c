package main

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// metricDef is one reported metric, as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening, as a share of the median
}

var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.1},
	{"peak_rss_mb", "MB", "lower", 0.2},
}

var perLayer = []metricDef{
	{name: "net.s", unit: "s", better: "lower"},
	{name: "net.alloc_mb", unit: "MB", better: "lower"},
	{name: "net.fanin_us_per_flow", unit: "us", better: "lower"},
	{name: "net.spread_us_per_flow", unit: "us", better: "lower"},
	{name: "sim.events", unit: "count", better: "lower"},
	{name: "sim.ns_per_event", unit: "ns", better: "lower"},
	{name: "sim.pool_hit_rate", unit: "ratio", better: "higher"},
	{name: "sim.loop_s", unit: "s", better: "lower"},
	{name: "workflow.outside_loop_s", unit: "s", better: "lower"},
	{name: "transport.s", unit: "s", better: "lower"},
	{name: "transport.alloc_mb", unit: "MB", better: "lower"},
	{name: "staging.put_us", unit: "us", better: "lower"},
	{name: "staging.query_us", unit: "us", better: "lower"},
	{name: "dimes.get_us", unit: "us", better: "lower"},
	{name: "dimes.deploy_s", unit: "s", better: "lower"},
	{name: "dataspaces.deploy_s", unit: "s", better: "lower"},
	{name: "hpc.new_ms", unit: "ms", better: "lower"},
	{name: "telemetry.encode_s", unit: "s", better: "lower"},
	{name: "telemetry.alloc_mb", unit: "MB", better: "lower"},
	{name: "core.cell_ms", unit: "ms", better: "lower"},
	{name: "prof.overhead_s", unit: "s", better: "lower"},
}

// report summarizes one benchmark run: its untraced child samples and,
// with --trace 1, its traced ones.
type report struct {
	workload         workload
	seed             int64
	untraced, traced []*sample

	correct           bool
	attempted, failed int
	mismatches        []string
	e2e, layers       map[string]float64
	groups, roles     map[string]float64
}

// collect returns the median over samples of one value.
func collect(ss []*sample, f func(*sample) float64) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return median(xs)
}

// medianMap takes the per-key median over samples of a map each holds.
func medianMap(ss []*sample, f func(*sample) map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, s := range ss {
		for k := range f(s) {
			out[k] = 0
		}
	}
	for k := range out {
		out[k] = collect(ss, func(s *sample) float64 { return f(s)[k] })
	}
	return out
}

func (r *report) summarize() {
	for _, s := range append(slices.Clone(r.untraced), r.traced...) {
		r.attempted += s.Runs
		r.failed += s.Failed
		r.mismatches = append(r.mismatches, s.Mismatches...)
	}
	r.correct = r.failed == 0 && len(r.mismatches) == 0
	r.e2e = map[string]float64{}
	for _, m := range endToEnd {
		r.e2e[m.name] = collect(r.untraced, func(s *sample) float64 { return s.endToEnd(m.name) })
	}
	if len(r.traced) == 0 {
		return
	}
	t := r.traced
	r.layers = medianMap(t, func(s *sample) map[string]float64 { return s.Layers })
	r.groups = medianMap(t, func(s *sample) map[string]float64 { return s.Groups })
	r.roles = medianMap(t, func(s *sample) map[string]float64 { return s.Roles })
	r.layers["prof.overhead_s"] = collect(t, func(s *sample) float64 { return s.TracedWallS }) - r.e2e["wall_s"]
}

func (r *report) print(out io.Writer) {
	w := r.workload
	fmt.Fprintf(out, "hostbench %s, seed %d", w.name, r.seed)
	if !w.fig2 {
		cfg := w.config(variant(r.seed))
		fmt.Fprintf(out, " (%v %s, %s, %d+%d ranks, %d steps)", cfg.Method, cfg.Machine.Name,
			cfg.SyntheticLayout, cfg.SimProcs, cfg.AnaProcs, cfg.Steps)
	}
	fmt.Fprintf(out, "\nchild processes at GOMAXPROCS=1: %d untraced, %d traced\n", len(r.untraced), len(r.traced))
	fmt.Fprintf(out, "end-to-end (untraced, median over child processes; min..max):\n")
	for _, m := range endToEnd {
		vals := make([]float64, len(r.untraced))
		for i, s := range r.untraced {
			vals[i] = s.endToEnd(m.name)
		}
		fmt.Fprintf(out, "  %-26s %12.6g %-5s (%.6g..%.6g)\n", m.name, r.e2e[m.name], m.unit, slices.Min(vals), slices.Max(vals))
	}
	fmt.Fprintf(out, "  %-26s %12.6g       (%d of %d simulation runs failed or missed the reference)\n",
		"failed_frac", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	for _, m := range r.mismatches {
		fmt.Fprintf(out, "  MISMATCH %s\n", m)
	}
	metrics := map[string]any{}
	if len(r.traced) > 0 {
		fmt.Fprintf(out, "per-layer (traced, median over child processes):\n")
		for _, m := range perLayer {
			fmt.Fprintf(out, "  %-26s %12.6g %s\n", m.name, r.layers[m.name], m.unit)
			metrics[m.name] = map[string]any{"value": r.layers[m.name], "unit": m.unit}
		}
		traced := r.e2e["wall_s"] + r.layers["prof.overhead_s"]
		fmt.Fprintf(out, "tracing overhead: prof.overhead_s %.4f s (traced %.4f s vs untraced %.4f s, %+.1f%%)\n",
			r.layers["prof.overhead_s"], traced, r.e2e["wall_s"], 100*r.layers["prof.overhead_s"]/r.e2e["wall_s"])
		fmt.Fprintf(out, "journal host seconds by site package: %s\n", listed(r.groups))
		fmt.Fprintf(out, "journal host seconds by who runs them: %s\n", listed(r.roles))
		fmt.Fprintf(out, "dominant layer: %s\n", r.dominance())
	} else {
		for _, m := range endToEnd {
			metrics[m.name] = map[string]any{"value": r.e2e[m.name], "unit": m.unit}
		}
	}
	buf, _ := json.Marshal(map[string]any{
		"correct":   r.correct,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	fmt.Fprintln(out, string(buf))
}

// listed renders a map largest value first.
func listed(m map[string]float64) string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if m[keys[a]] != m[keys[b]] {
			return m[keys[a]] > m[keys[b]]
		}
		return keys[a] < keys[b]
	})
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s %.3f", k, m[k])
	}
	return strings.Join(parts, ", ")
}

func verdict(ok bool) string {
	if ok {
		return "confirmed"
	}
	return "NOT confirmed"
}

// dominance checks the layer the workload was chosen to load.
func (r *report) dominance() string {
	loop := r.layers["sim.loop_s"]
	switch r.workload.name {
	case "ds-matched":
		top := ""
		for k, v := range r.roles {
			if top == "" || v > r.roles[top] {
				top = k
			}
		}
		return fmt.Sprintf("solver callbacks lead on ds-matched: %s (solver %.3f s of %.3f s in the loop, largest is %s)",
			verdict(top == "solver"), r.roles["solver"], loop, top)
	case "ds-nto1":
		return fmt.Sprintf("rank-side coupler code (DataSpaces client, transport sends, staging stores) leads the solver on ds-nto1: %s (ranks %.3f s, solver %.3f s of %.3f s in the loop)",
			verdict(r.roles["ranks"] > r.roles["solver"]), r.roles["ranks"], r.roles["solver"], loop)
	case "dimes-10k":
		cfg := r.workload.driverConfig(variant(r.seed))
		reads := r.layers["dimes.get_us"] / 1e6 * float64(cfg.AnaProcs*cfg.Steps)
		return fmt.Sprintf("dimes.get_us x reads dominates dimes-10k: %s (%.3f s, %.0f%% of %.3f s in the loop)",
			verdict(reads > loop/2), reads, 100*reads/loop, loop)
	default:
		return "none expected on fig2-quick (a broad mix over 72 runs)"
	}
}
