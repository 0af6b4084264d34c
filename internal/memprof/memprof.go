// Package memprof tracks simulated memory consumption per workflow
// component over virtual time. It is the testbed's analogue of the
// Valgrind massif profiles the paper uses for Figures 5, 6, 7 and 11:
// every allocation a library model makes is recorded against a component
// (a simulation rank, an analytics rank, a staging server) under a kind
// ("compute", "staging", "index", "buffer", ...), producing current and
// peak statistics. Publish makes the tracker the producer of the
// registry's memory tracks, the one time-series of memory.
package memprof

import (
	"sort"
	"strings"
	"sync"

	"github.com/imcstudy/imcstudy/internal/metrics"
)

// Component accumulates the memory usage of one workflow entity.
type Component struct {
	name       string
	cur        int64
	peak       int64
	byKind     map[string]int64
	peakByKind map[string]int64

	// gauge is the published mem/<name> track and kindGauges the
	// mem/<name>/<kind> tracks; gauge is nil while unpublished.
	gauge      *metrics.Gauge
	kindGauges map[string]*metrics.Gauge
}

// Name returns the component name.
func (c *Component) Name() string { return c.name }

// Current returns the bytes currently allocated.
func (c *Component) Current() int64 { return c.cur }

// Peak returns the maximum bytes ever allocated.
func (c *Component) Peak() int64 { return c.peak }

// PeakOf returns the peak bytes allocated under the given kind.
func (c *Component) PeakOf(kind string) int64 { return c.peakByKind[kind] }

// CurrentOf returns the bytes currently allocated under the given kind.
func (c *Component) CurrentOf(kind string) int64 { return c.byKind[kind] }

// Kinds returns the allocation kinds seen, sorted.
func (c *Component) Kinds() []string {
	kinds := make([]string, 0, len(c.peakByKind))
	for k := range c.peakByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// Tracker owns all components of one simulation run.
type Tracker struct {
	mu    sync.Mutex
	comps map[string]*Component
	order []string

	// reg and prefixes select the published components (see Publish).
	reg      *metrics.Registry
	prefixes []string
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{comps: make(map[string]*Component)}
}

// Component returns (creating if needed) the named component.
func (t *Tracker) Component(name string) *Component {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.comps[name]
	if !ok {
		c = &Component{
			name:       name,
			byKind:     make(map[string]int64),
			peakByKind: make(map[string]int64),
		}
		t.comps[name] = c
		t.order = append(t.order, name)
		t.publish(c)
	}
	return c
}

// Publish makes the tracker a producer of registry tracks. From now on
// every component whose name starts with one of prefixes records, each
// time its memory changes, a mem/<component> sampled gauge (current
// bytes, peak and series) and a mem/<component>/<kind> sampled gauge for
// the allocation kind that changed. Publish before the components
// allocate: changes made earlier are not replayed into the series. A nil
// registry is a no-op.
func (t *Tracker) Publish(reg *metrics.Registry, prefixes ...string) {
	if reg == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reg, t.prefixes = reg, prefixes
	for _, name := range t.order {
		t.publish(t.comps[name])
	}
}

// publish attaches c's gauges when c matches a published prefix; the
// caller holds t.mu.
func (t *Tracker) publish(c *Component) {
	if t.reg == nil || c.gauge != nil {
		return
	}
	for _, p := range t.prefixes {
		if strings.HasPrefix(c.name, p) {
			c.gauge = t.reg.SampledGauge("mem/" + c.name)
			c.kindGauges = make(map[string]*metrics.Gauge)
			return
		}
	}
}

// Alloc records n bytes allocated by the component under kind.
func (t *Tracker) Alloc(component, kind string, n int64) {
	t.adjust(component, kind, n)
}

// Free records n bytes released by the component under kind.
func (t *Tracker) Free(component, kind string, n int64) {
	t.adjust(component, kind, -n)
}

func (t *Tracker) adjust(component, kind string, n int64) {
	c := t.Component(component)
	t.mu.Lock()
	defer t.mu.Unlock()
	c.cur += n
	c.byKind[kind] += n
	if c.cur < 0 {
		c.cur = 0
	}
	if c.byKind[kind] < 0 {
		c.byKind[kind] = 0
	}
	if c.cur > c.peak {
		c.peak = c.cur
	}
	if c.byKind[kind] > c.peakByKind[kind] {
		c.peakByKind[kind] = c.byKind[kind]
	}
	if c.gauge != nil {
		c.gauge.Set(float64(c.cur))
		g, ok := c.kindGauges[kind]
		if !ok {
			g = t.reg.SampledGauge("mem/" + c.name + "/" + kind)
			c.kindGauges[kind] = g
		}
		g.Set(float64(c.byKind[kind]))
	}
}

// Components returns all components in creation order.
func (t *Tracker) Components() []*Component {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Component, 0, len(t.order))
	for _, name := range t.order {
		out = append(out, t.comps[name])
	}
	return out
}

// PeakMatching sums the peak usage of every component whose name has the
// given prefix — e.g. PeakMatching("server") for total staging memory.
func (t *Tracker) PeakMatching(prefix string) int64 {
	var total int64
	for _, c := range t.Components() {
		if len(c.name) >= len(prefix) && c.name[:len(prefix)] == prefix {
			total += c.peak
		}
	}
	return total
}

// MaxPeakMatching returns the largest single-component peak under prefix.
func (t *Tracker) MaxPeakMatching(prefix string) int64 {
	var max int64
	for _, c := range t.Components() {
		if len(c.name) >= len(prefix) && c.name[:len(prefix)] == prefix && c.peak > max {
			max = c.peak
		}
	}
	return max
}
