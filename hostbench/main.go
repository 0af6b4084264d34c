// Command hostbench is the simulator's host-performance benchmark: the
// host seconds, set-up time and memory a user pays per simulated
// workflow, on four workloads that each load different layers. See
// README.md in this directory for the metrics and the method.
//
// Usage (from the repository root, through the build wrapper):
//
//	bash hostbench/run.sh --workload ds-nto1 --seed 1 --seconds 30 --trace 0
//
// Each measurement runs in a fresh child process with GOMAXPROCS=1; the
// parent repeats children until the time is spent and reports medians.
// The last line of standard output is the JSON result.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"time"
)

func main() {
	workloadName := flag.String("workload", "", "workload name: ds-nto1, ds-matched, dimes-10k or fig2-quick")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "seconds to measure for")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from traced runs, 0 end-to-end metrics")
	child := flag.String("child", "", "internal: run one untraced or traced measurement and print it")
	record := flag.Bool("record", false, "run every variant once and print the reference file")
	flag.Parse()

	if *record {
		if err := recordReferences(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	w, err := workloadByName(*workloadName)
	if err != nil {
		fatal(err)
	}
	refs, err := loadReferences()
	if err != nil {
		fatal(err)
	}
	if *child != "" {
		s, err := measure(w, *seed, *child == "traced", refs)
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(s); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace %d: want 0 or 1", *trace))
	}
	rep, err := orchestrate(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fatal(err)
	}
	rep.print(os.Stdout)
	if !rep.correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hostbench:", err)
	os.Exit(2)
}

// orchestrate repeats fresh child measurements until the time budget is
// spent: untraced children only, or untraced/traced pairs with --trace 1.
// A new child starts only while the budget still holds one more of the
// slowest kind seen so far, so runs end close to the budget.
func orchestrate(w workload, seed int64, budget time.Duration, traced bool) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	rep := &report{workload: w, seed: seed}
	start := time.Now()
	var longest time.Duration
	for len(rep.untraced) == 0 || time.Since(start)+longest <= budget {
		t0 := time.Now()
		s, err := runChild(exe, w, seed, "untraced")
		if err != nil {
			return nil, err
		}
		rep.untraced = append(rep.untraced, s)
		if traced {
			s, err := runChild(exe, w, seed, "traced")
			if err != nil {
				return nil, err
			}
			rep.traced = append(rep.traced, s)
		}
		longest = max(longest, time.Since(t0))
	}
	rep.summarize()
	return rep, nil
}

// runChild runs one measurement in a fresh single-P process.
func runChild(exe string, w workload, seed int64, kind string) (*sample, error) {
	cmd := exec.Command(exe, "--child", kind, "--workload", w.name, "--seed", fmt.Sprint(seed))
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s measurement of %s: %w", kind, w.name, err)
	}
	var s sample
	if err := json.Unmarshal(out.Bytes(), &s); err != nil {
		return nil, fmt.Errorf("%s measurement of %s: %w", kind, w.name, err)
	}
	return &s, nil
}
