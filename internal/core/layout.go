package core

import (
	"fmt"
	"strings"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/ndarray"
	"github.com/imcstudy/imcstudy/internal/synthetic"
	"github.com/imcstudy/imcstudy/internal/workflow"
)

// Fig8 regenerates Figure 8: an illustration of how the staging-area
// decomposition maps writers to servers under the mismatched and matched
// layouts (4 writers, 4 servers).
func Fig8(Options) *Table {
	t := &Table{
		ID:     "fig8",
		Title:  "Data layout in the staging area (4 writers S-1..S-4, 4 servers)",
		Header: []string{"layout", "writer", "server access sequence"},
	}
	const writers, servers = 4, 4
	for _, layout := range []synthetic.Layout{synthetic.LayoutMismatch, synthetic.LayoutMatched} {
		global, err := synthetic.GlobalBox(layout, writers)
		if err != nil {
			t.AddRow(label(layout.String()), dash, failed(err))
			continue
		}
		regions, err := ndarray.StagingRegions(global, servers)
		if err != nil {
			t.AddRow(label(layout.String()), dash, failed(err))
			continue
		}
		for w := 0; w < writers; w++ {
			wbox, err := synthetic.WriterBox(layout, writers, w)
			if err != nil {
				continue
			}
			var seq []string
			for i, region := range regions {
				if wbox.Overlaps(region) {
					seq = append(seq, fmt.Sprintf("srv%d", ndarray.RegionServer(i, servers)+1))
				}
			}
			t.AddRow(labels(layout.String(), fmt.Sprintf("S-%d", w+1), strings.Join(seq, " -> "))...)
		}
	}
	t.AddNote("mismatch: every writer walks every server in the same order (N-to-1, Fig 8a); matched: each writer stays on its own server (N-to-N, Fig 8b)")
	return t
}

// Fig9 regenerates Figure 9: the impact of matching the data layout to
// the processor-scaling dimension, using the synthetic workflow through
// DataSpaces on Titan.
func Fig9(o Options) *Table {
	t := &Table{
		ID:     "fig9",
		Title:  "Impact of data layout, synthetic workflow via DataSpaces on Titan",
		Header: []string{"scale", "mismatch e2e s", "matched e2e s", "improvement"},
	}
	// Two staging servers share a node, so the matched layout only pulls
	// ahead once the servers span multiple nodes.
	scales := []Scale{{64, 32}, {128, 64}, {256, 128}}
	if o.Quick {
		scales = scales[:2]
	}
	for _, sc := range scales {
		var times [2]Cell
		for i, layout := range []synthetic.Layout{synthetic.LayoutMismatch, synthetic.LayoutMatched} {
			times[i] = endToEnd(workflow.Run(workflow.Config{
				Machine:         hpc.Titan(),
				Method:          workflow.MethodDataSpacesNative,
				Workload:        workflow.WorkloadSynthetic,
				SimProcs:        sc.Sim,
				AnaProcs:        sc.Ana,
				Steps:           o.steps(),
				SyntheticLayout: layout,
			}))
		}
		t.AddRow(label(sc.String()), times[0], times[1], derive(times[0], times[1], func(mismatch, matched float64) Cell {
			return ratio(mismatch/matched, 1)
		}))
	}
	best := 0.0
	for r := range t.Rows {
		if imp, ok := t.value(r, 3); ok && imp > best {
			best = imp
		}
	}
	t.AddNote("best improvement %.1fx (paper: up to 5.3x); the gain grows with the staging-server count", best)
	return t
}
