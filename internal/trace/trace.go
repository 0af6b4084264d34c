// Package trace records per-component activity spans, cross-component
// flows and counter tracks on the virtual clock, and exports them in the
// Chrome trace-event format, so a workflow run's timeline (compute,
// staging puts/gets, waits), put→get data-flow arrows and NIC/memory
// counter tracks can be inspected in chrome://tracing or Perfetto (open
// the JSON at https://ui.perfetto.dev).
package trace

import (
	"fmt"
	"sort"
	"strconv"

	"github.com/imcstudy/imcstudy/internal/metrics"
	"github.com/imcstudy/imcstudy/internal/sim"
)

// Span is one activity interval of a component.
type Span struct {
	Component string            `json:"component"`
	Name      string            `json:"name"`
	Start     sim.Time          `json:"start"`
	End       sim.Time          `json:"end"`
	Args      map[string]string `json:"args,omitempty"`
}

// Duration returns the span length.
func (s Span) Duration() sim.Time { return s.End - s.Start }

// FlowPoint is one end of a cross-component flow arrow: a start anchors
// to the span enclosing (Component, T) — e.g. the put that produced a
// block — and the matching end (same ID) anchors to the span that
// consumed it.
type FlowPoint struct {
	ID        uint64   `json:"id"`
	Component string   `json:"component"`
	T         sim.Time `json:"t"`
	End       bool     `json:"end"`
}

// Recorder accumulates spans and flow points. The zero value is ready to
// use; a nil recorder ignores all calls, so call sites need no guards.
type Recorder struct {
	spans []Span
	flows []FlowPoint
}

// AddSpan records one span with optional args shown in the trace
// viewer's detail pane; calls on a nil recorder are dropped.
func (r *Recorder) AddSpan(component, name string, start, end sim.Time, args map[string]string) {
	if r == nil {
		return
	}
	if end < start {
		end = start
	}
	r.spans = append(r.spans, Span{Component: component, Name: name, Start: start, End: end, Args: args})
}

// FlowStart records the producing end of flow id on component at time t
// (typically the end of a put span).
func (r *Recorder) FlowStart(id uint64, component string, t sim.Time) {
	if r == nil {
		return
	}
	r.flows = append(r.flows, FlowPoint{ID: id, Component: component, T: t})
}

// FlowEnd records the consuming end of flow id on component at time t
// (typically the end of the matching get span).
func (r *Recorder) FlowEnd(id uint64, component string, t sim.Time) {
	if r == nil {
		return
	}
	r.flows = append(r.flows, FlowPoint{ID: id, Component: component, T: t, End: true})
}

// Flows returns the recorded flow points sorted by (ID, end).
func (r *Recorder) Flows() []FlowPoint {
	if r == nil {
		return nil
	}
	out := make([]FlowPoint, len(r.flows))
	copy(out, r.flows)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].ID != out[j].ID {
			return out[i].ID < out[j].ID
		}
		return !out[i].End && out[j].End
	})
	return out
}

// Spans returns the recorded spans sorted by start time (stable across
// runs: the engine is deterministic).
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// CounterTrack is a named time-series rendered as a Perfetto counter
// track ("C" events) alongside the span timeline. Samples may be a
// registry series' own slice (metrics.Series.View); the exporter only
// reads it.
type CounterTrack struct {
	Name    string
	Samples []metrics.Sample
}

// ExportOptions selects the extra event kinds ChromeTraceJSONWith emits
// beyond the span timeline.
type ExportOptions struct {
	// Counters become "C" events, one Perfetto counter track per entry.
	Counters []CounterTrack
}

// Output size estimates for ChromeTraceJSONWith's single allocation:
// a complete ("X") span event with its args, a flow event, and a
// counter ("C") event without its track name. Under-estimates only cost
// one buffer growth.
const (
	chromeSpanBytes    = 128
	chromeFlowBytes    = 112
	chromeCounterBytes = 84
)

// ChromeTraceJSONWith renders spans, flow arrows, and the counter tracks
// in opts as one Chrome trace-event array, compact, with each thread's
// "M" name event placed before its first use. Output is deterministic:
// spans sort by start time, flow points by (id, end), counter tracks
// keep the caller's order. The bytes are exactly those json.Marshal
// wrote for the same events as a []any of structs (an empty trace is
// `null`, and a span without args has no "args" key): numbers and
// strings go through metrics.AppendJSONFloat and
// metrics.AppendJSONString, and TestEncodersMatchOracle in
// internal/workflow enforces the equality. A NaN or infinite value
// returns an error and no output.
func (r *Recorder) ChromeTraceJSONWith(opts ExportOptions) ([]byte, error) {
	spans, flows := r.Spans(), r.Flows()
	size := len(spans)*chromeSpanBytes + len(flows)*chromeFlowBytes
	for _, track := range opts.Counters {
		size += len(track.Samples) * (chromeCounterBytes + len(track.Name))
	}
	if size == 0 {
		return []byte("null"), nil
	}
	b := make([]byte, 1, 1+size)
	b[0] = '['
	var err error
	num := func(v float64) {
		if err == nil {
			b, err = metrics.AppendJSONFloat(b, v)
		}
	}
	// open starts the next event of the array.
	open := func(head string) {
		if len(b) > 1 {
			b = append(b, ',')
		}
		b = append(b, head...)
	}
	tids := make(map[string]int)
	tidOf := func(component string) int {
		tid, ok := tids[component]
		if !ok {
			tid = len(tids) + 1
			tids[component] = tid
			open(`{"name":"thread_name","ph":"M","pid":1,"tid":`)
			b = strconv.AppendInt(b, int64(tid), 10)
			b = append(b, `,"args":{"name":`...)
			b = metrics.AppendJSONString(b, component)
			b = append(b, "}}"...)
		}
		return tid
	}
	// Complete ("X") events; ts and dur are in microseconds.
	var keys []string
	for _, s := range spans {
		tid := tidOf(s.Component)
		open(`{"name":`)
		b = metrics.AppendJSONString(b, s.Name)
		b = append(b, `,"ph":"X","ts":`...)
		num(s.Start * 1e6)
		b = append(b, `,"dur":`...)
		num(s.Duration() * 1e6)
		b = append(b, `,"pid":1,"tid":`...)
		b = strconv.AppendInt(b, int64(tid), 10)
		if len(s.Args) > 0 {
			keys = keys[:0]
			for k := range s.Args {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			b = append(b, `,"args":{`...)
			for i, k := range keys {
				if i > 0 {
					b = append(b, ',')
				}
				b = metrics.AppendJSONString(b, k)
				b = append(b, ':')
				b = metrics.AppendJSONString(b, s.Args[k])
			}
			b = append(b, '}')
		}
		b = append(b, '}')
	}
	// Legacy flow events: "s" starts an arrow, "f" with bp:"e" finishes
	// it bound to the enclosing slice; cat+name+id match across the pair.
	for _, f := range flows {
		tid := tidOf(f.Component)
		if f.End {
			open(`{"name":"dataflow","cat":"dataflow","ph":"f","id":`)
		} else {
			open(`{"name":"dataflow","cat":"dataflow","ph":"s","id":`)
		}
		b = strconv.AppendUint(b, f.ID, 10)
		b = append(b, `,"ts":`...)
		num(f.T * 1e6)
		b = append(b, `,"pid":1,"tid":`...)
		b = strconv.AppendInt(b, int64(tid), 10)
		if f.End {
			b = append(b, `,"bp":"e"`...)
		}
		b = append(b, '}')
	}
	for _, track := range opts.Counters {
		name := metrics.AppendJSONString(nil, track.Name)
		for _, s := range track.Samples {
			open(`{"name":`)
			b = append(b, name...)
			b = append(b, `,"ph":"C","ts":`...)
			num(s.T * 1e6)
			b = append(b, `,"pid":1,"args":{"value":`...)
			num(s.V)
			b = append(b, "}}"...)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return append(b, ']'), nil
}
