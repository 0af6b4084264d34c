// Command imcreport runs one coupled workflow with full telemetry and
// writes the unified metrics report: a JSON (and optionally CSV) snapshot
// of every counter, gauge, histogram and time-series the run recorded —
// NIC utilization, per-collective MPI traffic, staging-server object and
// index tracks, memory profiles — plus a Perfetto-renderable trace with
// counter tracks and put->get dataflow arrows. The engine is
// deterministic and the encoders sort, so repeated runs of the same
// configuration produce byte-identical files. -profile also attaches the
// simulator self-profiler and writes its run journal, which imcprof
// reports on and diffs.
//
// It is also the layout explorer for the synthetic workflow (Table II,
// third row): -layout picks the Figure 8 data layout, -transport the
// wire, and -verify moves real data and checks every element, so a
// planned coupling can be tried before a production run.
//
// Usage:
//
//	imcreport [-machine titan|cori] [-method <name>] [-workload lammps|laplace|synthetic]
//	          [-sim N] [-ana N] [-steps N] [-servers N]
//	          [-layout mismatch|matched] [-transport rdma|socket] [-verify]
//	          [-fail-staging-at T] [-replication K] [-checkpoint-every N]
//	          [-json metrics.json] [-csv metrics.csv] [-trace trace.json]
//	          [-profile profile.json]
//	imcreport -list
//
// Exit status: 0 on a clean run, 2 when the modelled workflow itself
// failed (e.g. an injected crash killed an unprotected method), 1 on
// usage or I/O errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/imcstudy/imcstudy"
)

// errWorkflowFailed marks a run that completed but ended in failure
// (Result.Failed), so scripted sweeps can tell "the modelled workflow
// crashed" (exit 2) apart from usage or I/O errors (exit 1).
var errWorkflowFailed = errors.New("workflow failed")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "imcreport:", err)
		if errors.Is(err, errWorkflowFailed) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("imcreport", flag.ContinueOnError)
	machine := fs.String("machine", "titan", "machine model: titan or cori")
	method := fs.String("method", "DataSpaces/native", "coupling method (as in Figure 2's legend)")
	workloadName := fs.String("workload", "lammps", "workload: lammps, laplace or synthetic")
	simProcs := fs.Int("sim", 32, "simulation processors")
	anaProcs := fs.Int("ana", 16, "analytics processors")
	steps := fs.Int("steps", 3, "coupling steps")
	failStagingAt := fs.Float64("fail-staging-at", 0, "crash a staging node at this virtual time (0 = no fault)")
	replication := fs.Int("replication", 0, "replicate staged objects across k distinct-node servers (0/1 = off)")
	checkpointEvery := fs.Int("checkpoint-every", 0, "persist every Nth version to Lustre as a fallback (0 = off)")
	servers := fs.Int("servers", 0, "staging servers (0 = method default; replication needs enough distinct server nodes)")
	layout := fs.String("layout", "mismatch", "synthetic data layout: mismatch or matched (Figure 8)")
	transportName := fs.String("transport", "rdma", "transport: rdma or socket")
	verify := fs.Bool("verify", false, "move real data and verify every element (small scales)")
	jsonOut := fs.String("json", "metrics.json", "metrics JSON output file (empty = skip)")
	csvOut := fs.String("csv", "", "metrics CSV output file (empty = skip)")
	traceOut := fs.String("trace", "trace.json", "Perfetto trace output file (empty = skip)")
	profileOut := fs.String("profile", "", "simulator self-profile output file (empty = run unprofiled)")
	list := fs.Bool("list", false, "list known methods, machines and workloads, then exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Fprintln(w, "methods:  ", names(imcstudy.Methods()))
		fmt.Fprintln(w, "machines: ", names(imcstudy.Machines()))
		fmt.Fprintln(w, "workloads:", names(imcstudy.Workloads()))
		return nil
	}

	cfg := imcstudy.RunConfig{
		SimProcs:        *simProcs,
		AnaProcs:        *anaProcs,
		Steps:           *steps,
		Servers:         *servers,
		Replication:     *replication,
		CheckpointEvery: *checkpointEvery,
		Dense:           *verify,
		Metrics:         true,
		Trace:           *traceOut != "",
		Profile:         *profileOut != "",
	}
	if *failStagingAt > 0 {
		cfg.Faults = imcstudy.StagingCrashAt(*failStagingAt)
	}
	var ok bool
	cfg.Machine, ok = imcstudy.MachineByName(*machine)
	if !ok {
		return fmt.Errorf("unknown machine %q; known: %s", *machine, names(imcstudy.Machines()))
	}
	cfg.Method, ok = imcstudy.MethodByName(*method)
	if !ok {
		return fmt.Errorf("unknown method %q; known: %s", *method, names(imcstudy.Methods()))
	}
	cfg.Workload, ok = imcstudy.WorkloadByName(*workloadName)
	if !ok {
		return fmt.Errorf("unknown workload %q; known: %s", *workloadName, names(imcstudy.Workloads()))
	}
	switch strings.ToLower(*layout) {
	case "mismatch":
		cfg.SyntheticLayout = imcstudy.LayoutMismatch
	case "matched":
		cfg.SyntheticLayout = imcstudy.LayoutMatched
	default:
		return fmt.Errorf("unknown layout %q; known: mismatch, matched", *layout)
	}
	switch strings.ToLower(*transportName) {
	case "rdma":
		cfg.TransportMode = imcstudy.TransportRDMA
	case "socket":
		cfg.TransportMode = imcstudy.TransportSocket
	default:
		return fmt.Errorf("unknown transport %q; known: rdma, socket", *transportName)
	}

	res, err := imcstudy.Run(cfg)
	if err != nil {
		return err
	}
	if res.Failed {
		return fmt.Errorf("%w (%s): %v", errWorkflowFailed, imcstudy.FailureClass(res.FailErr), res.FailErr)
	}

	if *jsonOut != "" {
		buf, err := res.Metrics.EncodeJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, buf, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote metrics JSON to %s\n", *jsonOut)
	}
	if *csvOut != "" {
		if err := os.WriteFile(*csvOut, res.Metrics.EncodeCSV(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote metrics CSV to %s\n", *csvOut)
	}
	if *traceOut != "" {
		buf, err := res.TraceJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*traceOut, buf, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote Perfetto trace to %s\n", *traceOut)
	}
	if *profileOut != "" {
		buf, err := res.Profile.EncodeJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*profileOut, buf, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote self-profile to %s: %d events, virtual %.3fs, wall %.3fs\n",
			*profileOut, res.Profile.Deterministic.Events, res.Profile.Deterministic.VirtualS,
			res.Profile.WallSeconds())
	}

	summarize(w, res)
	return nil
}

// summarize prints the headline numbers of the run: timings, memory
// peaks, per-collective MPI traffic and aggregate staging activity.
func summarize(w io.Writer, res imcstudy.RunResult) {
	snap := res.Metrics.Snapshot()
	fmt.Fprintf(w, "\n%s / %s / %s, %d sim + %d ana procs, %d steps\n",
		res.Config.Machine.Name, res.Config.Method, res.Config.Workload,
		res.Config.SimProcs, res.Config.AnaProcs, res.Config.Steps)
	fmt.Fprintf(w, "end-to-end %.3f s (virtual): compute %.3f s, put %.3f s, get %.3f s, analyze %.3f s\n",
		res.EndToEnd,
		snap.Counters["activity/compute/seconds"],
		snap.Counters["activity/put/seconds"],
		snap.Counters["activity/get/seconds"],
		snap.Counters["activity/analyze/seconds"])
	fmt.Fprintf(w, "peak memory: sim %s, ana %s, server %s (all servers %s)\n",
		fmtBytes(res.SimPeakBytes), fmtBytes(res.AnaPeakBytes),
		fmtBytes(res.ServerPeakBytes), fmtBytes(res.ServerTotalBytes))

	var mpiOps []string
	for name := range snap.Counters {
		if strings.HasPrefix(name, "mpi/") && strings.HasSuffix(name, "/bytes") {
			mpiOps = append(mpiOps, strings.TrimSuffix(strings.TrimPrefix(name, "mpi/"), "/bytes"))
		}
	}
	sort.Strings(mpiOps)
	for _, op := range mpiOps {
		fmt.Fprintf(w, "mpi %-10s %8.0f msgs  %s\n", op,
			snap.Counters["mpi/"+op+"/msgs"], fmtBytes(int64(snap.Counters["mpi/"+op+"/bytes"])))
	}
	if n := snap.Counters["staging/put/objects"]; n > 0 {
		fmt.Fprintf(w, "staging: %.0f objects staged (%s), %.0f dropped\n",
			n, fmtBytes(int64(snap.Counters["staging/put/bytes"])), snap.Counters["staging/drop/objects"])
	}
	fmt.Fprintf(w, "recorded %d counters, %d gauges, %d histograms, %d series\n",
		len(snap.Counters), len(snap.Gauges), len(snap.Histograms), len(snap.Series))
	if res.Config.Dense {
		fmt.Fprintf(w, "data verified: %v\n", res.Verified)
	}
}

// names joins the String() forms of a slice of named things.
func names[T any](xs []T) string {
	var out []string
	for _, x := range xs {
		switch v := any(x).(type) {
		case imcstudy.MachineSpec:
			out = append(out, v.Name)
		case fmt.Stringer:
			out = append(out, v.String())
		default:
			out = append(out, fmt.Sprint(x))
		}
	}
	return strings.Join(out, ", ")
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
