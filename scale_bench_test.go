// The scale digest gate behind `make bench`: the 1k/4k/10k-rank matrix
// across the three staging couplings, run with fixed configurations
// (the simulator is seed-deterministic) and checked against the
// committed BENCH_PR7.json. Each cell's modelled end-to-end time and
// the SHA-256 of its full telemetry JSON must not change; host
// performance is hostbench's record, not this file's.
//
// `go test ./...` always runs the 1k row (skipped under -short);
// IMC_SCALE_BENCH adds the 4k and 10k rows:
//
//	IMC_SCALE_BENCH=1 go test -run TestScaleBench -timeout 60m .
//	IMC_SCALE_BENCH=update go test -run TestScaleBench -timeout 60m .  # regenerate golden
package imcstudy_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"github.com/imcstudy/imcstudy"
)

const benchGolden = "BENCH_PR7.json"

type benchCell struct {
	Method        string  `json:"method"`
	Sim           int     `json:"sim"`
	Ana           int     `json:"ana"`
	VirtualS      float64 `json:"virtual_s"`
	MetricsSHA256 string  `json:"metrics_sha256"`
}

type benchFile struct {
	Machine  string      `json:"machine"`
	Workload string      `json:"workload"`
	Steps    int         `json:"steps"`
	Results  []benchCell `json:"results"`
}

// benchScales is the rank matrix: ~1k, ~4k and ~10k total ranks at the
// paper's 2:1 sim:ana split.
var benchScales = []struct{ sim, ana int }{
	{682, 342}, {2730, 1366}, {6826, 3414},
}

var benchMethods = []imcstudy.Method{
	imcstudy.MethodDataSpacesNative,
	imcstudy.MethodDIMESNative,
	imcstudy.MethodFlexpath,
}

func TestScaleBench(t *testing.T) {
	if testing.Short() {
		t.Skip("scale digest gate skipped under -short")
	}
	mode := os.Getenv("IMC_SCALE_BENCH")
	got := benchFile{Machine: "Titan", Workload: "synthetic", Steps: 2}

	// The golden always lists the whole matrix, in matrix order, whichever
	// rows this run covers.
	var want benchFile
	prev, readErr := os.ReadFile(benchGolden)
	bootstrap := os.IsNotExist(readErr)
	if readErr != nil && !bootstrap {
		t.Fatalf("reading %s: %v", benchGolden, readErr)
	}
	if mode != "update" && !bootstrap {
		if err := json.Unmarshal(prev, &want); err != nil {
			t.Fatalf("parsing %s: %v", benchGolden, err)
		}
		if want.Machine != got.Machine || want.Workload != got.Workload || want.Steps != got.Steps {
			t.Fatalf("golden header mismatch: have %s/%s/%d steps, suite runs %s/%s/%d",
				want.Machine, want.Workload, want.Steps, got.Machine, got.Workload, got.Steps)
		}
		if n := len(benchScales) * len(benchMethods); len(want.Results) != n {
			t.Fatalf("golden has %d cells, the matrix has %d; regenerate with IMC_SCALE_BENCH=update",
				len(want.Results), n)
		}
		for i, w := range want.Results {
			sc, method := benchScales[i/len(benchMethods)], benchMethods[i%len(benchMethods)]
			if w.Method != method.String() || w.Sim != sc.sim || w.Ana != sc.ana {
				t.Fatalf("golden cell %d is %s(%d,%d), the matrix expects %s(%d,%d)",
					i, w.Method, w.Sim, w.Ana, method, sc.sim, sc.ana)
			}
		}
	}

	rows := benchScales[:1]
	if mode != "" || bootstrap {
		rows = benchScales
	}
	for _, sc := range rows {
		for _, method := range benchMethods {
			res, err := imcstudy.Run(imcstudy.RunConfig{
				Machine:  imcstudy.Titan(),
				Method:   method,
				Workload: imcstudy.WorkloadSynthetic,
				SimProcs: sc.sim,
				AnaProcs: sc.ana,
				Steps:    got.Steps,
				Metrics:  true,
			})
			if err != nil {
				t.Fatalf("%s (%d,%d): %v", method, sc.sim, sc.ana, err)
			}
			if res.Failed {
				t.Fatalf("%s (%d,%d): run failed: %v", method, sc.sim, sc.ana, res.FailErr)
			}
			js, err := res.Metrics.EncodeJSON()
			if err != nil {
				t.Fatalf("%s (%d,%d): encoding metrics: %v", method, sc.sim, sc.ana, err)
			}
			got.Results = append(got.Results, benchCell{
				Method: method.String(), Sim: sc.sim, Ana: sc.ana,
				VirtualS:      float64(res.EndToEnd),
				MetricsSHA256: fmt.Sprintf("%x", sha256.Sum256(js)),
			})
			t.Logf("%-28s (%5d,%5d)  virtual %9.4fs", method, sc.sim, sc.ana, float64(res.EndToEnd))
		}
	}

	if mode == "update" || bootstrap {
		js, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(benchGolden, append(js, '\n'), 0o644); err != nil {
			t.Fatalf("writing %s: %v", benchGolden, err)
		}
		t.Logf("wrote %s; commit it as the golden", benchGolden)
		return
	}
	drift := false
	for i, g := range got.Results {
		w := want.Results[i]
		if w.VirtualS != g.VirtualS {
			t.Errorf("%s (%d,%d): virtual time drifted: golden %.9f, got %.9f",
				g.Method, g.Sim, g.Ana, w.VirtualS, g.VirtualS)
			drift = true
		}
		if w.MetricsSHA256 != g.MetricsSHA256 {
			t.Errorf("%s (%d,%d): metrics digest drifted:\ngolden %s\ngot    %s",
				g.Method, g.Sim, g.Ana, w.MetricsSHA256, g.MetricsSHA256)
			drift = true
		}
	}
	if drift {
		t.Fatalf("modelled results drifted from %s; if the model change is intended, "+
			"regenerate with IMC_SCALE_BENCH=update and explain the drift in the change", benchGolden)
	}
}
