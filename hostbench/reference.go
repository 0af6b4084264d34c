package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"github.com/imcstudy/imcstudy/internal/workflow"
)

// tolerance is the relative tolerance of every modelled-output check:
// loose enough for the float re-association the planned solver work
// brings, tight enough to catch any model change.
const tolerance = 1e-6

// reference is the recorded modelled output of one workload variant.
// Single runs fill the scalar fields; fig2-quick fills Cells (the Fig 2a
// then Fig 2b table cells, row-major) and Raw (the end-to-end virtual
// seconds of each cell, or -1 for a modelled failure), which the traced
// replay of the sweep is checked against.
type reference struct {
	EndToEnd        float64   `json:"end_to_end_s,omitempty"`
	PutTime         float64   `json:"put_time_s,omitempty"`
	GetTime         float64   `json:"get_time_s,omitempty"`
	ServerPeakBytes float64   `json:"server_peak_bytes,omitempty"`
	Failed          bool      `json:"failed,omitempty"`
	Cells           []string  `json:"fig2_cells,omitempty"`
	Raw             []float64 `json:"fig2_raw,omitempty"`
}

//go:embed refs.json
var refsJSON []byte

func loadReferences() (map[string]reference, error) {
	refs := map[string]reference{}
	if err := json.Unmarshal(refsJSON, &refs); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	return refs, nil
}

// outputsOf extracts the checked outputs of one run.
func outputsOf(res workflow.Result) reference {
	return reference{
		EndToEnd:        res.EndToEnd,
		PutTime:         res.PutTime,
		GetTime:         res.GetTime,
		ServerPeakBytes: float64(res.ServerPeakBytes),
		Failed:          res.Failed,
	}
}

// rawOf is the per-cell output of the traced fig2-quick replay.
func rawOf(results []workflow.Result) []float64 {
	out := make([]float64, len(results))
	for i, r := range results {
		out[i] = r.EndToEnd
		if r.Failed {
			out[i] = -1
		}
	}
	return out
}

func within(got, want float64) bool {
	return math.Abs(got-want) <= tolerance*math.Max(math.Abs(want), 1e-12)
}

// mismatches lists every output of got that misses want. Table cells
// compare numerically when both parse as numbers, else exactly.
func (want reference) mismatches(got reference) []string {
	var out []string
	scalar := func(name string, g, w float64) {
		if !within(g, w) {
			out = append(out, fmt.Sprintf("%s = %.12g, reference %.12g", name, g, w))
		}
	}
	if want.Cells == nil && want.Raw == nil {
		scalar("EndToEnd", got.EndToEnd, want.EndToEnd)
		scalar("PutTime", got.PutTime, want.PutTime)
		scalar("GetTime", got.GetTime, want.GetTime)
		scalar("ServerPeakBytes", got.ServerPeakBytes, want.ServerPeakBytes)
		if got.Failed != want.Failed {
			out = append(out, fmt.Sprintf("Failed = %v, reference %v", got.Failed, want.Failed))
		}
		return out
	}
	list := func(name string, n, m int, eq func(i int) bool, show func(i int) string) {
		if n != m {
			out = append(out, fmt.Sprintf("%s: %d values, reference %d", name, n, m))
			return
		}
		for i := 0; i < n; i++ {
			if !eq(i) {
				out = append(out, fmt.Sprintf("%s[%d]: %s", name, i, show(i)))
			}
		}
	}
	if got.Cells != nil {
		list("cell", len(got.Cells), len(want.Cells), func(i int) bool {
			g, gerr := strconv.ParseFloat(got.Cells[i], 64)
			w, werr := strconv.ParseFloat(want.Cells[i], 64)
			if gerr == nil && werr == nil {
				return within(g, w)
			}
			return got.Cells[i] == want.Cells[i]
		}, func(i int) string { return fmt.Sprintf("%q, reference %q", got.Cells[i], want.Cells[i]) })
	}
	if got.Raw != nil {
		list("raw", len(got.Raw), len(want.Raw), func(i int) bool { return within(got.Raw[i], want.Raw[i]) },
			func(i int) string { return fmt.Sprintf("%.12g, reference %.12g", got.Raw[i], want.Raw[i]) })
	}
	return out
}
