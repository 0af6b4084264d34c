package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"testing"

	"github.com/imcstudy/imcstudy/internal/core"
	"github.com/imcstudy/imcstudy/internal/synthetic"
)

// perturbed returns want with every number scaled by 1+rel, for the
// self-test that a moved reference fails the run.
func (want reference) perturbed(rel float64) reference {
	p := want
	p.EndToEnd *= 1 + rel
	p.PutTime *= 1 + rel
	p.GetTime *= 1 + rel
	p.ServerPeakBytes *= 1 + rel
	p.Cells = nil
	for _, c := range want.Cells {
		if f, err := strconv.ParseFloat(c, 64); err == nil {
			c = strconv.FormatFloat(f*(1+rel), 'f', -1, 64)
		}
		p.Cells = append(p.Cells, c)
	}
	p.Raw = nil
	for _, r := range want.Raw {
		p.Raw = append(p.Raw, r*(1+rel))
	}
	return p
}

func mustRefs(t *testing.T) map[string]reference {
	t.Helper()
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

// Every seed maps to a variant with a recorded reference.
func TestEverySeedHasAReference(t *testing.T) {
	refs := mustRefs(t)
	for _, w := range workloads {
		for seed := int64(-3); seed < 6; seed++ {
			if _, ok := refs[w.refKey(variant(seed))]; !ok {
				t.Errorf("%s seed %d: no reference %s", w.name, seed, w.refKey(variant(seed)))
			}
			if err := checkCoverage(w, variant(seed)); err != nil {
				t.Error(err)
			}
		}
	}
}

// A reference moved by 1e-3 relative fails the run: the child reports
// a failed run and the report is not correct.
func TestPerturbedReferenceFailsTheRun(t *testing.T) {
	w, err := workloadByName("ds-matched")
	if err != nil {
		t.Fatal(err)
	}
	refs := mustRefs(t)
	key := w.refKey(variant(0))
	s, err := measure(w, 0, false, refs)
	if err != nil {
		t.Fatal(err)
	}
	if s.Failed != 0 || len(s.Mismatches) != 0 {
		t.Fatalf("recorded reference: failed %d, mismatches %v", s.Failed, s.Mismatches)
	}
	refs[key] = refs[key].perturbed(1e-3)
	s, err = measure(w, 0, false, refs)
	if err != nil {
		t.Fatal(err)
	}
	if s.Failed != 1 || len(s.Mismatches) != 4 {
		t.Fatalf("perturbed reference: failed %d, mismatches %v; want 1 failed run, 4 mismatched outputs", s.Failed, s.Mismatches)
	}
	rep := &report{workload: w, untraced: []*sample{s}}
	rep.summarize()
	if rep.correct {
		t.Fatal("report of a run that missed its reference is correct")
	}
}

// Every Fig 2 table cell misses a reference moved by 1e-3.
func TestPerturbedFig2ReferenceFailsEveryCell(t *testing.T) {
	w, _ := workloadByName("fig2-quick")
	want := mustRefs(t)[w.refKey(0)]
	if n := len(want.perturbed(1e-3).mismatches(reference{Cells: want.Cells})); n != len(want.Cells) {
		t.Fatalf("%d of %d perturbed cells mismatch", n, len(want.Cells))
	}
	if n := len(want.mismatches(reference{Cells: want.Cells, Raw: want.Raw})); n != 0 {
		t.Fatalf("%d recorded outputs miss their own reference", n)
	}
}

// The traced replay of fig2-quick runs the cells core.Fig2a/Fig2b run,
// in the same order: the recorded replay outputs print as the recorded
// table cells.
func TestFig2ReplayIsCoresSweep(t *testing.T) {
	w, _ := workloadByName("fig2-quick")
	want := mustRefs(t)[w.refKey(0)]
	cells := w.fig2Cells()
	if len(cells) != 72 || len(want.Raw) != len(cells) || len(want.Cells) != len(cells) {
		t.Fatalf("%d cells, %d raw, %d table cells; want 72 each", len(cells), len(want.Raw), len(want.Cells))
	}
	for i, raw := range want.Raw {
		if got := fmt.Sprintf("%.2f", raw); got != want.Cells[i] {
			t.Errorf("cell %d (%v %s %d+%d): replay %s, table %s", i, cells[i].Method, cells[i].Machine.Name,
				cells[i].SimProcs, cells[i].AnaProcs, got, want.Cells[i])
		}
	}
}

// Each layer driver models the configuration it is sized from, and
// that configuration is the workload's own (fig2-quick: its largest
// Quick scale).
func TestDriversModelTheirWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := w.driverConfig(0)
			if w.fig2 {
				scales := core.Fig2Scales(w.fig2Options())
				if top := scales[len(scales)-1]; cfg.SimProcs != top.Sim || cfg.AnaProcs != top.Ana {
					t.Fatalf("driver config %d+%d, largest Quick scale %v", cfg.SimProcs, cfg.AnaProcs, top)
				}
			} else if !reflect.DeepEqual(cfg, w.config(0)) {
				t.Fatalf("driver config %+v differs from the workload's %+v", cfg, w.config(0))
			}
			staged := int64(cfg.SimProcs) * synthetic.PerWriterBytes()

			if _, c := netFlows(cfg, true); c.flows != cfg.SimProcs {
				t.Errorf("fan-in driver: %d flows for %d writers", c.flows, cfg.SimProcs)
			}
			_, _, c, err := stagingStore(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if c.writers != cfg.SimProcs || c.readers != cfg.AnaProcs || c.putBytes != staged || c.gotBytes != staged {
				t.Errorf("staging driver: %+v for %d writers, %d readers, %d bytes", c, cfg.SimProcs, cfg.AnaProcs, staged)
			}
			if c.puts < cfg.SimProcs || c.queries < cfg.AnaProcs {
				t.Errorf("staging driver: %d puts, %d queries for %d writers, %d readers", c.puts, c.queries, cfg.SimProcs, cfg.AnaProcs)
			}
			_, c, err = dimesGet(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if c.writers != cfg.SimProcs || c.readers != cfg.AnaProcs || c.gotBytes != staged {
				t.Errorf("DIMES driver: %+v for %d writers, %d readers, %d bytes", c, cfg.SimProcs, cfg.AnaProcs, staged)
			}
		})
	}
}

// BENCHMARK.json lists exactly the workloads and metrics this program
// reports, with the same units, directions and bounds.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) || len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the program %d, %d, %d",
			len(b.Workloads), len(b.EndToEnd), len(b.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	for i, m := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, got, m)
		}
	}
	for i, m := range perLayer {
		got := b.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, got, m)
		}
	}
}
