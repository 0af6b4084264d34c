package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// small is the prof-smoke configuration with every output file off.
var small = []string{"-workload", "synthetic", "-sim", "64", "-ana", "32", "-steps", "2", "-json", "", "-trace", ""}

func runArgs(t *testing.T, extra ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(append(append([]string{}, small...), extra...), &out)
	return out.String(), err
}

// TestLayoutsAndTransports runs every layout x transport pair; each pair
// models a different run, so the four summaries must all differ.
func TestLayoutsAndTransports(t *testing.T) {
	seen := make(map[string]string)
	for _, layout := range []string{"mismatch", "matched"} {
		for _, tr := range []string{"rdma", "socket"} {
			out, err := runArgs(t, "-layout", layout, "-transport", tr)
			if err != nil {
				t.Fatalf("-layout %s -transport %s: %v", layout, tr, err)
			}
			if !strings.Contains(out, "end-to-end") {
				t.Errorf("-layout %s -transport %s: no summary in output:\n%s", layout, tr, out)
			}
			if strings.Contains(out, "data verified") {
				t.Errorf("-layout %s -transport %s: verification reported without -verify", layout, tr)
			}
			pair := layout + "/" + tr
			if prev, dup := seen[out]; dup {
				t.Errorf("%s printed the same summary as %s; the flags had no effect", pair, prev)
			}
			seen[out] = pair
		}
	}
}

// TestVerify shrinks the run to 2+1 ranks: a dense run holds every
// element of the synthetic array, and at 64+32 ranks that peaks above
// 5 GB of resident memory.
func TestVerify(t *testing.T) {
	out, err := runArgs(t, "-verify", "-sim", "2", "-ana", "1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "data verified: true") {
		t.Errorf("-verify did not report verified data:\n%s", out)
	}
}

func TestUnknownLayoutAndTransport(t *testing.T) {
	for _, args := range [][]string{{"-layout", "diagonal"}, {"-transport", "carrier-pigeon"}} {
		if _, err := runArgs(t, args...); err == nil || !strings.Contains(err.Error(), args[1]) {
			t.Errorf("%v: got error %v, want one naming %q", args, err, args[1])
		}
	}
}

// TestWorkflowFailureNamesClass crashes Flexpath's staging node mid-run
// (default LAMMPS workload): the run fails as a modelled workflow
// failure (exit 2) and the error names its failure class.
func TestWorkflowFailureNamesClass(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-method", "Flexpath", "-fail-staging-at", "11", "-json", "", "-trace", ""}, &out)
	if !errors.Is(err, errWorkflowFailed) {
		t.Fatalf("got error %v, want a workflow failure", err)
	}
	if !strings.Contains(err.Error(), "workflow failed (node-failure): ") {
		t.Errorf("error %q does not name the node-failure class", err)
	}
}
