package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/imcstudy/imcstudy/internal/metrics"
)

func TestRecorderSpansSorted(t *testing.T) {
	var r Recorder
	r.AddSpan("sim-0", "compute", 5, 7, nil)
	r.AddSpan("sim-0", "put", 7, 8, nil)
	r.AddSpan("ana-0", "get", 1, 3, nil)
	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %d", len(spans))
	}
	if spans[0].Component != "ana-0" {
		t.Fatalf("spans not sorted by start: %+v", spans)
	}
	if d := spans[1].Duration(); spans[1].Name != "compute" || d != 2 {
		t.Fatalf("compute span %+v lasts %v, want 2", spans[1], d)
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.AddSpan("x", "y", 0, 1, map[string]string{"k": "v"}) // must not panic
	r.FlowStart(1, "x", 0)
	r.FlowEnd(1, "y", 1)
	if r.Spans() != nil {
		t.Fatal("nil recorder returned spans")
	}
	if r.Flows() != nil {
		t.Fatal("nil recorder returned flows")
	}
}

func TestNegativeDurationClamped(t *testing.T) {
	var r Recorder
	r.AddSpan("c", "n", 5, 3, nil)
	if d := r.Spans()[0].Duration(); d != 0 {
		t.Fatalf("duration = %v, want 0", d)
	}
}

func TestChromeTraceJSON(t *testing.T) {
	var r Recorder
	r.AddSpan("sim-0", "compute", 0, 1.5, nil)
	r.AddSpan("sim-0", "put", 1.5, 1.6, nil)
	r.AddSpan("ana-0", "get", 1.6, 1.7, nil)
	buf, err := r.ChromeTraceJSONWith(ExportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf, &events); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf)
	}
	// Two thread_name metadata events + three X events.
	var meta, complete int
	for _, ev := range events {
		switch ev["ph"] {
		case "M":
			meta++
		case "X":
			complete++
		}
	}
	if meta != 2 || complete != 3 {
		t.Fatalf("meta=%d complete=%d, want 2/3\n%s", meta, complete, buf)
	}
	if !strings.Contains(string(buf), `"dur":1500000`) {
		t.Fatalf("1.5 s span should be 1,500,000 us:\n%s", buf)
	}
}

func TestChromeTraceJSONWithCountersAndFlows(t *testing.T) {
	var r Recorder
	r.AddSpan("sim-0", "put", 0, 1, map[string]string{"step": "0", "bytes": "1024"})
	r.AddSpan("ana-0", "get", 1, 2, nil)
	r.FlowStart(7, "sim-0", 1)
	r.FlowEnd(7, "ana-0", 2)
	buf, err := r.ChromeTraceJSONWith(ExportOptions{
		Counters: []CounterTrack{{
			Name:    "nic/server-0/in",
			Samples: []metrics.Sample{{T: 0, V: 0.5}, {T: 1, V: 0.9}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf, &events); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf)
	}
	counts := map[string]int{}
	for _, ev := range events {
		counts[ev["ph"].(string)]++
	}
	if counts["M"] != 2 || counts["X"] != 2 || counts["C"] != 2 || counts["s"] != 1 || counts["f"] != 1 {
		t.Fatalf("event counts = %v, want M:2 X:2 C:2 s:1 f:1\n%s", counts, buf)
	}
	js := string(buf)
	for _, want := range []string{`"step":"0"`, `"bp":"e"`, `"id":7`, `"value":0.9`} {
		if !strings.Contains(js, want) {
			t.Fatalf("missing %s in:\n%s", want, js)
		}
	}
}

func TestFlowsSorted(t *testing.T) {
	var r Recorder
	r.FlowEnd(2, "b", 3)
	r.FlowStart(2, "a", 1)
	r.FlowStart(1, "a", 0)
	flows := r.Flows()
	if flows[0].ID != 1 || flows[1].ID != 2 || flows[1].End || !flows[2].End {
		t.Fatalf("flows not sorted by (id, end): %+v", flows)
	}
}
