// Package metrics is the testbed's virtual-clock telemetry registry:
// counters, gauges, histograms and time-series sampled on the simulation
// clock. It is the quantitative companion to trace.Recorder — where the
// recorder answers "when did each rank do what", the registry answers
// "how much": NIC utilization, per-collective MPI bytes, staging-server
// object counts and index sizes, memory tracks.
//
// Two properties shape the design:
//
//   - Near-zero cost when disabled. Every accessor on a nil *Registry
//     returns a nil instrument, and every method on a nil instrument is a
//     no-op — the same pattern as trace.Recorder — so instrumented hot
//     paths pay one nil check when telemetry is off. Call sites that
//     would allocate building a metric name should guard with a plain
//     `if reg != nil`.
//
//   - Deterministic encoding. The discrete-event engine is deterministic,
//     so two runs of the same configuration produce identical metric
//     values; EncodeJSON and EncodeCSV emit them in sorted order so the
//     encoded reports are byte-identical as well.
//
//   - Streaming encoding with a byte-for-byte contract. EncodeJSON
//     writes exactly what json.MarshalIndent of the registry's Snapshot
//     wrote, but appends it straight from the instruments into one
//     buffer. Numbers and strings go through AppendJSONFloat and
//     AppendJSONString, which reproduce encoding/json and are shared
//     with the Chrome trace exporter in internal/trace. The reflective
//     encoders survive only as test oracles: TestEncodersMatchOracle in
//     internal/workflow compares both encoders with them on real runs,
//     and FuzzJSONAppendMatchesEncodingJSON compares the appenders with
//     json.Marshal.
//
// The package deliberately imports nothing from the rest of the testbed
// (virtual time is a plain float64), so every layer — sim, hpc,
// transport, mpi, the staging models, memprof — can record into it.
package metrics

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Time is a virtual-clock timestamp in seconds (mirrors sim.Time without
// importing it).
type Time = float64

// Counter is a monotonically-increasing value.
type Counter struct {
	v float64
}

// Add increases the counter; calls on a nil counter are dropped.
func (c *Counter) Add(d float64) {
	if c == nil {
		return
	}
	c.v += d
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a value that can move both ways; it remembers its peak. A
// sampled gauge (see Registry.SampledGauge) also appends every change to
// a same-named time-series, producing a Perfetto counter track.
type Gauge struct {
	r      *Registry
	v      float64
	peak   float64
	series *Series
}

// Set assigns the gauge; calls on a nil gauge are dropped.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
	if v > g.peak {
		g.peak = v
	}
	if g.series != nil {
		g.series.Append(g.r.now(), g.v)
	}
}

// Add moves the gauge by d.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	g.Set(g.v + d)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Peak returns the maximum value ever set (0 on nil).
func (g *Gauge) Peak() float64 {
	if g == nil {
		return 0
	}
	return g.peak
}

// Histogram summarizes a stream of observations (count, sum, min, max).
type Histogram struct {
	count    int64
	sum      float64
	min, max float64
}

// Observe records one value; calls on a nil histogram are dropped.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Sample is one point of a time-series.
type Sample struct {
	T Time    `json:"t"`
	V float64 `json:"v"`
}

// Series is a time-series of samples on the virtual clock. Consecutive
// samples at the same instant coalesce (the last value wins), which
// keeps same-instant storms (several rate recomputations or allocations
// at one virtual time) from bloating the series.
type Series struct {
	samples []Sample
}

// Append records v at time t; calls on a nil series are dropped.
func (s *Series) Append(t Time, v float64) {
	if s == nil {
		return
	}
	if n := len(s.samples); n > 0 && s.samples[n-1].T == t {
		s.samples[n-1].V = v
		return
	}
	if len(s.samples) == cap(s.samples) {
		// Double explicitly: large series otherwise hit the runtime's
		// ~1.25x growth and spend their time in memmove.
		next := make([]Sample, len(s.samples), max(64, 2*cap(s.samples)))
		copy(next, s.samples)
		s.samples = next
	}
	s.samples = append(s.samples, Sample{T: t, V: v})
}

// Samples returns a copy of the series.
func (s *Series) Samples() []Sample {
	if s == nil {
		return nil
	}
	out := make([]Sample, len(s.samples))
	copy(out, s.samples)
	return out
}

// View returns the series' samples without copying them, for encoders
// that only read. The caller must not modify the slice; it stays valid
// until the next Append.
func (s *Series) View() []Sample {
	if s == nil {
		return nil
	}
	return s.samples
}

// Len returns the number of samples.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	return len(s.samples)
}

// Registry owns all instruments of one run. A nil *Registry is a valid
// disabled registry: every accessor returns nil and every recording is
// dropped.
type Registry struct {
	mu         sync.Mutex
	nowFn      func() Time
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	series     map[string]*Series
}

// NewRegistry returns a registry stamping series samples with now
// (typically sim.Engine.Now). A nil now function pins the clock at zero.
func NewRegistry(now func() Time) *Registry {
	if now == nil {
		now = func() Time { return 0 }
	}
	return &Registry{
		nowFn:      now,
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		series:     make(map[string]*Series),
	}
}

func (r *Registry) now() Time {
	if r == nil {
		return 0
	}
	return r.nowFn()
}

// Counter returns (creating if needed) the named counter; nil on a nil
// registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{r: r}
		r.gauges[name] = g
	}
	return g
}

// SampledGauge returns the named gauge with time-series sampling
// attached: every Set/Add also appends to the same-named series, which
// the trace exporter renders as a Perfetto counter track.
func (r *Registry) SampledGauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g := r.Gauge(name)
	if g.series == nil {
		g.series = r.Series(name)
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Series returns (creating if needed) the named time-series.
func (r *Registry) Series(name string) *Series {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[name]
	if !ok {
		s = &Series{}
		r.series[name] = s
	}
	return s
}

// Sample appends v to the named series at the current virtual time.
func (r *Registry) Sample(name string, v float64) {
	if r == nil {
		return
	}
	r.Series(name).Append(r.now(), v)
}

// SeriesNames returns every series name, sorted.
func (r *Registry) SeriesNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.series))
	for name := range r.series {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// gaugeOut / histOut are the encoded forms.
type gaugeOut struct {
	Value float64 `json:"value"`
	Peak  float64 `json:"peak"`
}

type histOut struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
}

// Snapshot is the encodable state of a registry.
type Snapshot struct {
	Counters   map[string]float64  `json:"counters"`
	Gauges     map[string]gaugeOut `json:"gauges"`
	Histograms map[string]histOut  `json:"histograms"`
	Series     map[string][]Sample `json:"series"`
}

// Snapshot captures the current state for readers such as imcreport's
// summary. No encoder uses it; json.MarshalIndent of a Snapshot is the
// specification EncodeJSON is held to.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]float64{},
		Gauges:     map[string]gaugeOut{},
		Histograms: map[string]histOut{},
		Series:     map[string][]Sample{},
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		snap.Counters[name] = c.v
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = gaugeOut{Value: g.v, Peak: g.peak}
	}
	//imclint:deterministic -- per-key pure copy into a map; Mean reads only the histogram
	for name, h := range r.histograms {
		snap.Histograms[name] = histOut{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max, Mean: h.Mean()}
	}
	//imclint:deterministic -- per-key pure copy into a map; Samples reads only the series
	for name, s := range r.series {
		snap.Series[name] = s.Samples()
	}
	return snap
}

// EncodeJSON renders the registry as indented JSON, sorted by name, so
// two runs of the same deterministic simulation produce byte-identical
// output. The bytes are exactly those of json.MarshalIndent(r.Snapshot(),
// "", "  ") plus a trailing newline; the encoder appends them straight
// from the instruments into one buffer sized from the sample count
// instead of building the Snapshot (TestEncodersMatchOracle in
// internal/workflow enforces the equality). A NaN or infinite value
// returns an error and no output, as encoding/json does.
func (r *Registry) EncodeJSON() ([]byte, error) {
	if r == nil {
		r = new(Registry)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	instruments, samples := r.counts()
	b := make([]byte, 0, 128+instruments*jsonInstrumentBytes+samples*jsonSampleBytes)
	var err error
	num := func(v float64) {
		if err == nil {
			b, err = AppendJSONFloat(b, v)
		}
	}

	b = append(b, '{')
	b = appendKey(b, 1, 0, "counters")
	b = append(b, '{')
	for i, name := range sortedKeys(r.counters) {
		b = appendKey(b, 2, i, name)
		num(r.counters[name].v)
	}
	b = appendClose(b, 1, len(r.counters), '}')

	b = appendKey(b, 1, 1, "gauges")
	b = append(b, '{')
	for i, name := range sortedKeys(r.gauges) {
		g := r.gauges[name]
		b = appendKey(b, 2, i, name)
		b = append(b, '{')
		b = appendKey(b, 3, 0, "value")
		num(g.v)
		b = appendKey(b, 3, 1, "peak")
		num(g.peak)
		b = appendClose(b, 2, 2, '}')
	}
	b = appendClose(b, 1, len(r.gauges), '}')

	b = appendKey(b, 1, 2, "histograms")
	b = append(b, '{')
	for i, name := range sortedKeys(r.histograms) {
		h := r.histograms[name]
		b = appendKey(b, 2, i, name)
		b = append(b, '{')
		b = appendKey(b, 3, 0, "count")
		b = strconv.AppendInt(b, h.count, 10)
		b = appendKey(b, 3, 1, "sum")
		num(h.sum)
		b = appendKey(b, 3, 2, "min")
		num(h.min)
		b = appendKey(b, 3, 3, "max")
		num(h.max)
		b = appendKey(b, 3, 4, "mean")
		num(h.Mean())
		b = appendClose(b, 2, 5, '}')
	}
	b = appendClose(b, 1, len(r.histograms), '}')

	b = appendKey(b, 1, 3, "series")
	b = append(b, '{')
	for i, name := range sortedKeys(r.series) {
		b = appendKey(b, 2, i, name)
		b = append(b, '[')
		points := r.series[name].samples
		for j, s := range points {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n      {\n        \"t\": "...)
			num(s.T)
			b = append(b, ",\n        \"v\": "...)
			num(s.V)
			b = append(b, "\n      }"...)
		}
		b = appendClose(b, 2, len(points), ']')
	}
	b = appendClose(b, 1, len(r.series), '}')
	b = append(b, "\n}\n"...)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return b, nil
}

// counts returns how many named instruments and series samples the
// registry holds, for sizing the encoders' buffers. The caller holds
// r.mu.
func (r *Registry) counts() (instruments, samples int) {
	for _, s := range r.series {
		samples += len(s.samples)
	}
	return len(r.counters) + len(r.gauges) + len(r.histograms) + len(r.series), samples
}

// Output size estimates for EncodeJSON's single allocation: an indented
// sample object with two full-precision floats, and a named instrument
// with its fields. Under-estimates only cost one buffer growth.
const (
	jsonSampleBytes     = 72
	jsonInstrumentBytes = 160
)

// jsonIndent holds the indentation of every depth EncodeJSON writes.
const jsonIndent = "\n          "

// appendKey starts entry i of an indented object at depth: the comma
// after the previous entry, the newline and indent, then `"name": `.
func appendKey(b []byte, depth, i int, name string) []byte {
	if i > 0 {
		b = append(b, ',')
	}
	b = append(b, jsonIndent[:1+2*depth]...)
	b = AppendJSONString(b, name)
	return append(b, ": "...)
}

// appendClose ends an indented object or array at depth that held n
// entries; an empty one closes on the same line, as json.Indent does.
func appendClose(b []byte, depth, n int, c byte) []byte {
	if n > 0 {
		b = append(b, jsonIndent[:1+2*depth]...)
	}
	return append(b, c)
}

// EncodeCSV renders the registry as `kind,name,field,value` rows, sorted
// by (kind, name, field); series samples become one row per point in
// time order. Byte-identical across runs of the same configuration.
func (r *Registry) EncodeCSV() []byte {
	if r == nil {
		r = new(Registry)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	instruments, samples := r.counts()
	b := make([]byte, 0, 32+instruments*csvInstrumentBytes+samples*csvSampleBytes)
	b = append(b, "kind,name,field,value\n"...)
	row := func(kind, name, field string, v float64) {
		b = append(b, kind...)
		b = append(b, ',')
		b = appendCSVField(b, name)
		b = append(b, ',')
		b = append(b, field...)
		b = append(b, ',')
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
		b = append(b, '\n')
	}
	for _, name := range sortedKeys(r.counters) {
		row("counter", name, "value", r.counters[name].v)
	}
	for _, name := range sortedKeys(r.gauges) {
		g := r.gauges[name]
		row("gauge", name, "value", g.v)
		row("gauge", name, "peak", g.peak)
	}
	for _, name := range sortedKeys(r.histograms) {
		h := r.histograms[name]
		row("histogram", name, "count", float64(h.count))
		row("histogram", name, "sum", h.sum)
		row("histogram", name, "min", h.min)
		row("histogram", name, "max", h.max)
		row("histogram", name, "mean", h.Mean())
	}
	for _, name := range sortedKeys(r.series) {
		prefix := appendCSVField([]byte("series,"), name)
		for _, s := range r.series[name].samples {
			b = append(b, prefix...)
			b = append(b, ',')
			b = strconv.AppendFloat(b, s.T, 'g', -1, 64)
			b = append(b, ',')
			b = strconv.AppendFloat(b, s.V, 'g', -1, 64)
			b = append(b, '\n')
		}
	}
	return b
}

// Output size estimates for EncodeCSV's single allocation: one series
// row, and the rows of a named instrument.
const (
	csvSampleBytes     = 64
	csvInstrumentBytes = 96
)

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// appendCSVField guards metric names containing commas or quotes (none
// of the testbed's do, but reports must stay parseable regardless).
func appendCSVField(b []byte, s string) []byte {
	if !strings.ContainsAny(s, ",\"\n") {
		return append(b, s...)
	}
	b = append(b, '"')
	b = append(b, strings.ReplaceAll(s, `"`, `""`)...)
	return append(b, '"')
}
