package workflow

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/metrics"
	"github.com/imcstudy/imcstudy/internal/synthetic"
	"github.com/imcstudy/imcstudy/internal/trace"
)

// The oracles below are the reflective encoders the streaming ones
// replaced, kept unchanged in behaviour as the specification the
// streaming encoders must match byte for byte (as forceFullRates is for
// the incremental fair-share solver).

// oracleMetricsJSON is the old Registry.EncodeJSON: MarshalIndent of
// the Snapshot plus a trailing newline.
func oracleMetricsJSON(r *metrics.Registry) ([]byte, error) {
	buf, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return append(buf, '\n'), nil
}

// oracleMetricsCSV is the old Registry.EncodeCSV, built from the
// Snapshot.
func oracleMetricsCSV(r *metrics.Registry) []byte {
	snap := r.Snapshot()
	var b strings.Builder
	b.WriteString("kind,name,field,value\n")
	format := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	row := func(kind, name, field string, v float64) {
		if strings.ContainsAny(name, ",\"\n") {
			name = `"` + strings.ReplaceAll(name, `"`, `""`) + `"`
		}
		b.WriteString(kind + "," + name + "," + field + "," + format(v) + "\n")
	}
	for _, name := range oracleSorted(snap.Counters) {
		row("counter", name, "value", snap.Counters[name])
	}
	for _, name := range oracleSorted(snap.Gauges) {
		g := snap.Gauges[name]
		row("gauge", name, "value", g.Value)
		row("gauge", name, "peak", g.Peak)
	}
	for _, name := range oracleSorted(snap.Histograms) {
		h := snap.Histograms[name]
		row("histogram", name, "count", float64(h.Count))
		row("histogram", name, "sum", h.Sum)
		row("histogram", name, "min", h.Min)
		row("histogram", name, "max", h.Max)
		row("histogram", name, "mean", h.Mean)
	}
	for _, name := range oracleSorted(snap.Series) {
		for _, s := range snap.Series[name] {
			row("series", name, format(s.T), s.V)
		}
	}
	return []byte(b.String())
}

func oracleSorted[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// oracleTraceJSON is the old Result.TraceJSON: every registry series
// copied into a counter track, then the old exporter.
func oracleTraceJSON(r *Result) ([]byte, error) {
	var opts trace.ExportOptions
	for _, name := range r.Metrics.SeriesNames() {
		opts.Counters = append(opts.Counters, trace.CounterTrack{Name: name, Samples: r.Metrics.Series(name).Samples()})
	}
	opts.Counters = append(opts.Counters, profileCounterTracks(r.Profile)...)
	return oracleChromeJSON(r.Trace, opts)
}

type chromeEvent struct {
	Name  string            `json:"name"`
	Phase string            `json:"ph"`
	TS    float64           `json:"ts"`
	Dur   float64           `json:"dur"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Args  map[string]string `json:"args,omitempty"`
}

type chromeMeta struct {
	Name  string            `json:"name"`
	Phase string            `json:"ph"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Args  map[string]string `json:"args"`
}

type chromeCounter struct {
	Name  string             `json:"name"`
	Phase string             `json:"ph"`
	TS    float64            `json:"ts"`
	PID   int                `json:"pid"`
	Args  map[string]float64 `json:"args"`
}

type chromeFlow struct {
	Name  string  `json:"name"`
	Cat   string  `json:"cat"`
	Phase string  `json:"ph"`
	ID    uint64  `json:"id"`
	TS    float64 `json:"ts"`
	PID   int     `json:"pid"`
	TID   int     `json:"tid"`
	BP    string  `json:"bp,omitempty"`
}

// oracleChromeJSON is the old Recorder.ChromeTraceJSONWith: every event
// boxed into a []any and marshalled.
func oracleChromeJSON(r *trace.Recorder, opts trace.ExportOptions) ([]byte, error) {
	tids := make(map[string]int)
	var events []any
	tidOf := func(component string) int {
		tid, ok := tids[component]
		if !ok {
			tid = len(tids) + 1
			tids[component] = tid
			events = append(events, chromeMeta{
				Name: "thread_name", Phase: "M", PID: 1, TID: tid,
				Args: map[string]string{"name": component},
			})
		}
		return tid
	}
	for _, s := range r.Spans() {
		tid := tidOf(s.Component)
		events = append(events, chromeEvent{
			Name: s.Name, Phase: "X", TS: s.Start * 1e6, Dur: s.Duration() * 1e6,
			PID: 1, TID: tid, Args: s.Args,
		})
	}
	for _, f := range r.Flows() {
		ev := chromeFlow{
			Name: "dataflow", Cat: "dataflow", Phase: "s", ID: f.ID,
			TS: f.T * 1e6, PID: 1, TID: tidOf(f.Component),
		}
		if f.End {
			ev.Phase = "f"
			ev.BP = "e"
		}
		events = append(events, ev)
	}
	for _, track := range opts.Counters {
		for _, s := range track.Samples {
			events = append(events, chromeCounter{
				Name: track.Name, Phase: "C", TS: s.T * 1e6, PID: 1,
				Args: map[string]float64{"value": s.V},
			})
		}
	}
	buf, err := json.Marshal(events)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return buf, nil
}

// sameBytes fails t when the encoder and oracle outputs or errors differ.
func sameBytes(t *testing.T, what string, got []byte, gotErr error, want []byte, wantErr error) {
	t.Helper()
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: error %v, oracle error %v", what, gotErr, wantErr)
	}
	if gotErr != nil && got != nil {
		t.Fatalf("%s: error %v came with %d bytes of output", what, gotErr, len(got))
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: %d bytes differ from the oracle's %d at offset %d:\n got %.120q\nwant %.120q",
			what, len(got), len(want), i, got[min(i, len(got)):], want[min(i, len(want)):])
	}
}

// assertMatchesOracle compares every telemetry encoder of res with its
// oracle.
func assertMatchesOracle(t *testing.T, what string, res *Result) {
	t.Helper()
	got, gotErr := res.Metrics.EncodeJSON()
	want, wantErr := oracleMetricsJSON(res.Metrics)
	sameBytes(t, what+" metrics JSON", got, gotErr, want, wantErr)
	sameBytes(t, what+" metrics CSV", res.Metrics.EncodeCSV(), nil, oracleMetricsCSV(res.Metrics), nil)
	if res.Trace != nil {
		got, gotErr = res.TraceJSON()
		want, wantErr = oracleTraceJSON(res)
		sameBytes(t, what+" trace JSON", got, gotErr, want, wantErr)
	}
}

// TestEncodersMatchOracle holds the streaming telemetry encoders to the
// reflective ones they replaced, byte for byte: on two real runs (the
// larger one traced and profiled, so the sim/queue_depth and
// sim/event_density tracks are covered) and on the edge cases the
// reflective encoders defined.
func TestEncodersMatchOracle(t *testing.T) {
	cfg := scaleDeterminismBase()
	cfg.Trace, cfg.Profile = true, true
	for _, run := range []struct {
		name string
		cfg  Config
	}{{"scale", cfg}, {"metricsBase", metricsBase()}} {
		res, err := Run(run.cfg)
		if err != nil || res.Failed {
			t.Fatalf("%s: Run: %v %v", run.name, err, res.FailErr)
		}
		if run.name == "scale" && (res.Profile == nil || len(res.Profile.Deterministic.QueueDepth) == 0) {
			t.Fatal("scale run recorded no queue-depth series")
		}
		assertMatchesOracle(t, run.name, &res)
	}

	t.Run("nil registry", func(t *testing.T) {
		assertMatchesOracle(t, "nil", &Result{})
	})
	t.Run("empty recorder", func(t *testing.T) {
		for _, rec := range []*trace.Recorder{nil, {}} {
			got, err := rec.ChromeTraceJSONWith(trace.ExportOptions{})
			want, wantErr := oracleChromeJSON(rec, trace.ExportOptions{})
			sameBytes(t, "empty recorder", got, err, want, wantErr)
			if string(got) != "null" {
				t.Fatalf("empty recorder encodes as %s, want null", got)
			}
		}
	})
	t.Run("edge values", func(t *testing.T) {
		reg := metrics.NewRegistry(nil)
		reg.Series("empty")
		for _, name := range []string{"a<b", "c>d", "e&f", `g"h`, "i,j", "k\u2028l"} {
			reg.Counter(name).Add(1e-7)
		}
		reg.Gauge("tiny").Set(-5e-324)
		reg.Gauge("huge").Set(1e21)
		reg.Histogram("unobserved")
		reg.Histogram("negzero").Observe(math.Copysign(0, -1))
		rec := &trace.Recorder{}
		rec.AddSpan("sim-0", "empty args", 0, 1, map[string]string{})
		rec.AddSpan("sim-\u2029", "<span>", 1e-9, 2, map[string]string{"k&": "v>"})
		rec.FlowStart(1, "sim-0", 1)
		res := &Result{Trace: rec, Metrics: reg}
		assertMatchesOracle(t, "edge", res)
		js, _ := reg.EncodeJSON()
		if !strings.Contains(string(js), `"empty": []`) {
			t.Fatalf("zero-sample series not encoded as []:\n%s", js)
		}
		tr, _ := res.TraceJSON()
		if !strings.Contains(string(tr), `{"name":"empty args","ph":"X","ts":0,"dur":1000000,"pid":1,"tid":1}`) {
			t.Fatalf("span with an empty args map not encoded without args:\n%s", tr)
		}

		reg.Gauge("nan").Set(math.NaN())
		assertMatchesOracle(t, "NaN gauge", res)
		if _, err := reg.EncodeJSON(); err == nil {
			t.Fatal("NaN gauge encoded without error")
		}
		reg.Sample("inf", math.Inf(1))
		assertMatchesOracle(t, "infinite sample", res)
		if _, err := res.TraceJSON(); err == nil {
			t.Fatal("infinite counter sample encoded without error")
		}
	})
}

// BenchmarkEncodeTelemetry times each telemetry encoder on one fixed
// telemetry-on run (DataSpaces, synthetic N-to-1 layout, 64+32 ranks,
// 4 steps), which runs once outside the timer.
func BenchmarkEncodeTelemetry(b *testing.B) {
	res, err := Run(Config{
		Machine: hpc.Titan(), Method: MethodDataSpacesNative, Workload: WorkloadSynthetic,
		SyntheticLayout: synthetic.LayoutMismatch, SimProcs: 64, AnaProcs: 32, Steps: 4,
		Metrics: true, Trace: true,
	})
	if err != nil || res.Failed {
		b.Fatalf("Run: %v %v", err, res.FailErr)
	}
	for _, enc := range []struct {
		name string
		fn   func() ([]byte, error)
	}{
		{"EncodeJSON", res.Metrics.EncodeJSON},
		{"EncodeCSV", func() ([]byte, error) { return res.Metrics.EncodeCSV(), nil }},
		{"TraceJSON", res.TraceJSON},
	} {
		b.Run(enc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := enc.fn()
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(out)))
			}
		})
	}
}
