package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/sim"
	"github.com/imcstudy/imcstudy/internal/workflow"
)

var quick = Options{Quick: true, Steps: 2}

func renderOK(t *testing.T, tables ...*Table) string {
	t.Helper()
	var buf bytes.Buffer
	if err := RenderAll(&buf, tables); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestFig2aQuickShape(t *testing.T) {
	table := Fig2(workflow.WorkloadLAMMPS, hpc.Titan(), quick)
	out := renderOK(t, table)
	if !strings.Contains(out, "simulation-only") || !strings.Contains(out, "MPI-IO") {
		t.Fatalf("missing series:\n%s", out)
	}
	// Every cell is a time or a classified failure.
	for r, row := range table.Rows {
		for c, cell := range row {
			if _, ok := table.value(r, c); c > 0 && !ok && (!strings.HasPrefix(cell, "FAIL(") || cell == "FAIL(other)") {
				t.Fatalf("cell %q is neither a time nor a classified failure in row %v", cell, row)
			}
		}
	}
}

func TestFig2bLaplaceCoriSlowerThanTitan(t *testing.T) {
	titan := Fig2(workflow.WorkloadLaplace, hpc.Titan(), quick)
	cori := Fig2(workflow.WorkloadLaplace, hpc.Cori(), quick)
	// Compare the simulation-only rows: Cori's KNL cores run at 63.6% of
	// Titan's frequency, so the compute-bound Laplace is slower.
	tt := mustValue(t, titan, 0, 1)
	tc := mustValue(t, cori, 0, 1)
	if tc <= tt {
		t.Fatalf("Cori sim-only %.2f <= Titan %.2f", tc, tt)
	}
	if !almostEq(tc/tt, 1/hpc.CoriCPUSpeed, 0.05) {
		t.Fatalf("Cori/Titan ratio = %.3f, want ~%.3f", tc/tt, 1/hpc.CoriCPUSpeed)
	}
}

// mustValue is the number behind cell (row, col), failing the test when
// the cell shows none.
func mustValue(t *testing.T, table *Table, row, col int) float64 {
	t.Helper()
	v, ok := table.value(row, col)
	if !ok {
		t.Fatalf("%s cell (%d,%d) shows no number: %v", table.ID, row, col, table.Rows)
	}
	return v
}

func almostEq(a, b, relTol float64) bool {
	if a == b {
		return true
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b)/den <= relTol
}

func TestFig3QuickHasRDMAFailureAt128MB(t *testing.T) {
	full := Options{Steps: 1} // need the 128 MB point, so no Quick trim
	table := Fig3(full)
	out := renderOK(t, table)
	if !strings.Contains(out, "FAIL(out-of-RDMA-memory)") {
		t.Fatalf("expected an out-of-RDMA failure at 128 MB:\n%s", out)
	}
	// The 2x-servers row must NOT fail at the last size.
	for _, row := range table.Rows {
		if row[0] == "DataSpaces 2x servers" {
			last := row[len(row)-1]
			if strings.HasPrefix(last, "FAIL") {
				t.Fatalf("2x servers still fails: %v", row)
			}
		}
	}
}

func TestFig4Boundaries(t *testing.T) {
	table := Fig4(Options{})
	for _, row := range table.Rows {
		switch row[0] {
		case "4 KB", "64 KB", "256 KB":
			if row[1] != "3675" || row[2] != "out-of-RDMA-handlers" {
				t.Fatalf("small request row wrong: %v", row)
			}
		case "1 MB":
			if row[1] != "1843" || row[2] != "out-of-RDMA-memory" {
				t.Fatalf("1 MB row wrong: %v", row)
			}
		case "64 MB":
			if row[1] != "28" {
				t.Fatalf("64 MB row wrong: %v", row)
			}
		}
	}
}

func TestFig5MemoryShape(t *testing.T) {
	tables := Fig5(quick)
	if len(tables) != 3 { // two peak panels + the memory-vs-time series
		t.Fatalf("want 3 panels, got %d", len(tables))
	}
	lammps := tables[0]
	var dsSim, decafSim float64
	for r, row := range lammps.Rows {
		switch row[0] {
		case "DataSpaces/native":
			dsSim = mustValue(t, lammps, r, 1)
		case "Decaf":
			decafSim = mustValue(t, lammps, r, 1)
		}
	}
	if dsSim < 380 || dsSim > 460 {
		t.Fatalf("DataSpaces LAMMPS rank = %.0f MB, want ~400", dsSim)
	}
	// Decaf ranks use ~40% more memory (Figure 5d).
	if decafSim < dsSim*1.25 || decafSim > dsSim*1.6 {
		t.Fatalf("Decaf rank = %.0f MB vs DataSpaces %.0f MB, want ~1.4x", decafSim, dsSim)
	}
}

func TestFig6SFCIndexDominates(t *testing.T) {
	table := Fig6(quick)
	last := len(table.Rows) - 1
	ds := mustValue(t, table, last, 1)
	dimes := mustValue(t, table, last, 2)
	if ds < 2000 {
		t.Fatalf("DataSpaces SFC server = %.0f MB at 64 MB/proc, want multi-GB", ds)
	}
	if dimes > 200 {
		t.Fatalf("DIMES server = %.0f MB, want ~154 MB", dimes)
	}
}

func TestFig9MatchedLayoutWins(t *testing.T) {
	table := Fig9(quick)
	out := renderOK(t, table)
	for r, row := range table.Rows {
		mismatch := mustValue(t, table, r, 1)
		matched := mustValue(t, table, r, 2)
		if matched >= mismatch {
			t.Fatalf("matched layout not faster: %v\n%s", row, out)
		}
	}
}

func TestFig11DecafServerMemoryDrops(t *testing.T) {
	table := Fig11(quick)
	first := mustValue(t, table, 0, 1)
	last := mustValue(t, table, len(table.Rows)-1, 1)
	if last >= first/2 {
		t.Fatalf("per-server memory %v -> %v, want a large drop", first, last)
	}
}

func TestFig12MoreServersHelpStaging(t *testing.T) {
	table := Fig12(quick)
	s1 := mustValue(t, table, 0, 2)
	s2 := mustValue(t, table, 1, 2)
	if s2 >= s1 {
		t.Fatalf("staging time did not improve with servers: %v -> %v", s1, s2)
	}
}

func TestFig13SharedModeGains(t *testing.T) {
	tables := Fig13(quick)
	out := renderOK(t, tables...)
	if !strings.Contains(out, "FAIL(DRC-node-secure)") {
		t.Fatalf("DataSpaces uGNI shared mode should be denied:\n%s", out)
	}
	for _, table := range tables {
		for r, row := range table.Rows {
			if !strings.HasPrefix(row[0], "Decaf") {
				continue
			}
			if _, ok := table.value(r, 2); ok || row[2] != "FAIL(no-heterogeneous-launch)" {
				t.Fatalf("Decaf shared mode = %q, want FAIL(no-heterogeneous-launch):\n%s", row[2], out)
			}
		}
	}
}

func TestTablesRender(t *testing.T) {
	out := renderOK(t, Table1(quick), Table2(quick), Table3(quick), Fig8(quick))
	for _, want := range []string{"lock_type=2", "LAMMPS", "data staging API", "srv1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestTable3MatchesPaperCounts(t *testing.T) {
	table := Table3(quick)
	for _, row := range table.Rows {
		if row[2] != row[3] {
			t.Fatalf("LoC mismatch for %s/%s: counted %s, paper %s", row[0], row[1], row[2], row[3])
		}
	}
}

func TestTable4AllFailuresReproduced(t *testing.T) {
	table := Table4(Options{Steps: 1})
	wantByIssue := map[string]string{
		"out of RDMA memory":      "FAIL(out-of-RDMA-memory)",
		"data dimension overflow": "FAIL(dimension-overflow)",
		"out of main memory":      "FAIL(out-of-main-memory)",
		"out of sockets":          "FAIL(out-of-sockets)",
		"out of DRC":              "FAIL(out-of-DRC)",
	}
	for _, row := range table.Rows {
		want := wantByIssue[row[0]]
		if !strings.HasPrefix(row[2], want) {
			t.Fatalf("issue %q observed %q, want prefix %q", row[0], row[2], want)
		}
	}
}

func TestFindingsAllVerified(t *testing.T) {
	for _, f := range Findings(Options{Steps: 2}) {
		if !f.Verified {
			t.Errorf("finding %q not verified: %s", f.Name, f.Detail)
		} else {
			t.Logf("finding %q: %s", f.Name, f.Detail)
		}
	}
}

func TestMitigationsResolveFailures(t *testing.T) {
	table := Mitigations(Options{Steps: 1})
	if len(table.Rows) != 3 {
		t.Fatalf("want 3 mitigation rows, got %d", len(table.Rows))
	}
	for _, row := range table.Rows {
		if !strings.HasPrefix(row[1], "FAIL(") {
			t.Errorf("%s: baseline should fail, got %q", row[0], row[1])
		}
		if !strings.HasPrefix(row[2], "ran (") {
			t.Errorf("%s: mitigation should run, got %q", row[0], row[2])
		}
	}
}

func TestAblationsRender(t *testing.T) {
	tables := Ablations(Options{Quick: true, Steps: 1})
	if len(tables) != 4 {
		t.Fatalf("want 4 ablations, got %d", len(tables))
	}
	out := renderOK(t, tables...)
	for _, want := range []string{"ablation-nic", "ablation-lustre", "ablation-packing", "ablation-queue"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestAblationNICShrinksPenalty(t *testing.T) {
	tables := Ablations(Options{Quick: true, Steps: 2})
	nic := tables[0]
	if len(nic.Rows) < 2 {
		t.Fatalf("rows: %v", nic.Rows)
	}
	slow := mustValue(t, nic, 0, 3)
	fast := mustValue(t, nic, len(nic.Rows)-1, 3)
	if fast >= slow {
		t.Fatalf("penalty did not shrink with bandwidth: %v -> %v", slow, fast)
	}
}

func TestGPUStudyShowsTaxAndRecovery(t *testing.T) {
	table := GPUStudy(Options{Quick: true, Steps: 2})
	for r, row := range table.Rows {
		cpu := mustValue(t, table, r, 1)
		staged := mustValue(t, table, r, 2)
		direct := mustValue(t, table, r, 3)
		if staged <= cpu {
			t.Fatalf("%s: host staging should cost time (%v <= %v)", row[0], staged, cpu)
		}
		if direct >= staged {
			t.Fatalf("%s: GPU-direct should beat host staging (%v >= %v)", row[0], direct, staged)
		}
	}
}

func TestChartRendersBars(t *testing.T) {
	tbl := &Table{
		ID:     "demo",
		Title:  "demo",
		Header: []string{"method", "time"},
	}
	tbl.AddRow(label("fast"), seconds(1))
	tbl.AddRow(label("slow"), seconds(4))
	tbl.AddRow(label("broken"), label("FAIL(x)"))
	var buf bytes.Buffer
	if err := tbl.Chart(&buf, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	fastBar := strings.Count(lineWith(out, "fast"), "#")
	slowBar := strings.Count(lineWith(out, "slow"), "#")
	if slowBar != 4*fastBar {
		t.Fatalf("bars not proportional: fast=%d slow=%d\n%s", fastBar, slowBar, out)
	}
	if !strings.Contains(out, "FAIL(x)") {
		t.Fatalf("failure cell not rendered:\n%s", out)
	}
	if err := tbl.Chart(&buf, 9); err == nil {
		t.Fatal("out-of-range column accepted")
	}
}

func lineWith(out, needle string) string {
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, needle) {
			return line
		}
	}
	return ""
}

func TestChartAllPicksNumericColumn(t *testing.T) {
	tbl := Fig8(Options{}) // no numeric columns: skipped without error
	var buf bytes.Buffer
	if err := ChartAll(&buf, []*Table{tbl}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("fig8 should not chart, got:\n%s", buf.String())
	}
}

func TestResilienceOnlyFileBaselineSurvives(t *testing.T) {
	table := Resilience(Options{Steps: 1})
	if len(table.Rows) != 8 {
		t.Fatalf("resilience rows = %d, want 5 unprotected + 3 protected", len(table.Rows))
	}
	for _, row := range table.Rows {
		method, protection, outcome, class := row[0], row[1], row[2], row[3]
		switch {
		case protection != "none":
			// The protected reruns must survive the same crashes.
			if !strings.HasPrefix(outcome, "survived") {
				t.Fatalf("%s with %s outcome = %q, want survived", method, protection, outcome)
			}
		case method == "MPI-IO":
			if !strings.HasPrefix(outcome, "survived") {
				t.Fatalf("MPI-IO outcome = %q, want survived", outcome)
			}
		default:
			if outcome != "workflow crashed" || class != "node-failure" {
				t.Fatalf("%s outcome = %q/%q, want crash on node failure", method, outcome, class)
			}
		}
	}
}

func TestResilienceCostOverheadOrdering(t *testing.T) {
	table := ResilienceCost(Options{Quick: true, Steps: 1})
	if len(table.Rows) != 3 {
		t.Fatalf("resilience-cost quick rows = %d, want 3", len(table.Rows))
	}
	for i := range table.Rows {
		mustValue(t, table, i, 1)
	}
	// Replication must report replica traffic, checkpointing must report
	// Lustre checkpoint traffic; the unprotected baseline neither.
	if mustValue(t, table, 0, 3) != 0 || mustValue(t, table, 0, 4) != 0 {
		t.Fatalf("baseline row reports protection traffic: %v", table.Rows[0])
	}
	if mustValue(t, table, 1, 3) == 0 {
		t.Fatalf("replication row reports no replicated bytes: %v", table.Rows[1])
	}
	if mustValue(t, table, 2, 4) == 0 {
		t.Fatalf("checkpoint row reports no checkpoint bytes: %v", table.Rows[2])
	}
}

func TestTableValueIsUnrounded(t *testing.T) {
	tbl := &Table{ID: "demo"}
	tbl.AddRow(label("a"), seconds(1.23456), mb(3<<19), ratio(1.4949, 2), failed(errors.New("x")))
	if got := tbl.Rows[0]; strings.Join(got, " ") != "a 1.23 2 1.49x FAIL(other)" {
		t.Fatalf("rendered row = %q", got)
	}
	for col, want := range map[int]float64{1: 1.23456, 2: 1.5, 3: 1.4949} {
		if v, ok := tbl.value(0, col); !ok || v != want {
			t.Fatalf("value(0,%d) = %v,%v, want %v", col, v, ok, want)
		}
	}
	for _, rc := range [][2]int{{0, 0}, {0, 4}, {0, 5}, {1, 1}, {-1, 1}} {
		if v, ok := tbl.value(rc[0], rc[1]); ok {
			t.Fatalf("value%v = %v, want no number", rc, v)
		}
	}
}

func TestSetupErrorNeverRendersRan(t *testing.T) {
	setup := errors.New("config rejected")
	modelled := workflow.Result{Failed: true, FailErr: hpc.ErrOutOfNodeMemory, EndToEnd: 12}
	for _, c := range []struct {
		res  workflow.Result
		err  error
		want string
	}{
		{workflow.Result{}, setup, "FAIL(other)"},
		{workflow.Result{EndToEnd: 3}, setup, "FAIL(other)"},
		{modelled, nil, "FAIL(out-of-main-memory)"},
		{workflow.Result{Failed: true}, nil, "FAIL(other)"},
	} {
		for _, cell := range []Cell{outcome(c.res, c.err), endToEnd(c.res, c.err)} {
			if _, ok := cell.value(); cell.text != c.want || ok {
				t.Fatalf("outcome of setup error %v, failure %v = %q (number %v), want %q", c.err, c.res.FailErr, cell.text, ok, c.want)
			}
		}
	}
	if got := outcome(workflow.Result{EndToEnd: 17.125}, nil).text; got != "ran (17.12s)" {
		t.Fatalf("completed run = %q", got)
	}
	if got := observe(workflow.Result{}, setup); got != "setup error: config rejected" {
		t.Fatalf("Table IV setup error = %q", got)
	}
	if got := observe(modelled, nil); got != "FAIL(out-of-main-memory)" {
		t.Fatalf("Table IV modelled failure = %q", got)
	}
}

func TestStallRendersFailStalled(t *testing.T) {
	stall := &sim.StallError{Now: 5, LastProgress: 2}
	res := workflow.Result{Failed: true, FailErr: fmt.Errorf("workflow: %w", stall)}
	for _, cell := range []Cell{failed(stall), outcome(res, nil), endToEnd(res, nil)} {
		if cell.text != "FAIL(stalled)" {
			t.Fatalf("stalled run renders %q, want FAIL(stalled)", cell.text)
		}
	}
}

func TestFinding1NotVerifiedWhenRunsFail(t *testing.T) {
	oom := failed(hpc.ErrOutOfNodeMemory)
	for _, c := range [][2]Cell{{seconds(40), oom}, {oom, seconds(30)}, {oom, oom}} {
		if f := finding1(c[0], c[1]); f.Verified || f.Detail != "runs failed" {
			t.Fatalf("finding1(%q, %q) = verified %v (%s), want unverified", c[0].text, c[1].text, f.Verified, f.Detail)
		}
	}
	if f := finding1(seconds(40), seconds(30)); !f.Verified {
		t.Fatalf("DataSpaces slower than MPI-IO not verified: %s", f.Detail)
	}
}
