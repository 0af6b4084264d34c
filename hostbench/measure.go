package main

import (
	"encoding/json"
	"fmt"
	"io"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"

	"github.com/imcstudy/imcstudy/internal/synthetic"
	"github.com/imcstudy/imcstudy/internal/workflow"
)

// sample is one child process's measurement.
type sample struct {
	// Untraced: the workload as users run it, then the set-up replay.
	WallS      float64  `json:"wall_s"`
	SetupS     float64  `json:"setup_s"`
	AllocMB    float64  `json:"alloc_mb"`
	PeakRSSMB  float64  `json:"peak_rss_mb"`
	Runs       int      `json:"runs"`
	Failed     int      `json:"failed"`
	Mismatches []string `json:"mismatches,omitempty"`

	// Traced: the profiled run, the telemetry on/off pair, the layer
	// drivers and the per-phase set-up.
	TracedWallS float64            `json:"traced_wall_s,omitempty"`
	Layers      map[string]float64 `json:"layers,omitempty"`
	Groups      map[string]float64 `json:"groups,omitempty"`
	Roles       map[string]float64 `json:"roles,omitempty"`
}

// endToEnd returns the named end-to-end metric of an untraced sample.
func (s *sample) endToEnd(name string) float64 {
	switch name {
	case "wall_s":
		return s.WallS
	case "setup_s":
		return s.SetupS
	case "alloc_mb":
		return s.AllocMB
	case "peak_rss_mb":
		return s.PeakRSSMB
	}
	panic("unknown end-to-end metric " + name)
}

const mb = 1e6

func heapAllocs() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / mb // Linux reports kilobytes
}

// measure is the body of a child process.
func measure(w workload, seed int64, traced bool, refs map[string]reference) (*sample, error) {
	v := variant(seed)
	want, ok := refs[w.refKey(v)]
	if !ok {
		return nil, fmt.Errorf("no reference for %s", w.refKey(v))
	}
	if err := checkCoverage(w, v); err != nil {
		return nil, err
	}
	if traced {
		return measureTraced(w, v, want)
	}
	return measureUntraced(w, v, seed, want)
}

func measureUntraced(w workload, v int, seed int64, want reference) (*sample, error) {
	a0 := heapAllocs()
	res, err := runUntraced(w, v, seed)
	if err != nil {
		return nil, err
	}
	s := &sample{
		WallS:     res.wall.Seconds(),
		AllocMB:   float64(heapAllocs()-a0) / mb,
		PeakRSSMB: peakRSSMB(),
		Runs:      res.runs,
	}
	s.setMismatches(w, want.mismatches(res.got))
	res = runResult{} // drop the run before the set-up replay
	_, _, s.SetupS, err = medianSetup(w.configs(v))
	return s, err
}

// setMismatches records the outputs that missed the reference and how
// many runs they fail: each mismatch of a fig2-quick cell is one failed
// run, any mismatch of a single run fails it.
func (s *sample) setMismatches(w workload, ms []string) {
	s.Mismatches = ms
	s.Failed = len(ms)
	if !w.fig2 {
		s.Failed = min(len(ms), 1)
	}
}

// checkCoverage checks, for every seed variant, that the readers' boxes
// cover exactly the bytes the writers stage, so bytes put equal bytes
// got in the run.
func checkCoverage(w workload, v int) error {
	if w.fig2 {
		return nil
	}
	cfg := w.config(v)
	var put, got int64
	for i := 0; i < cfg.SimProcs; i++ {
		b, err := synthetic.WriterBox(cfg.SyntheticLayout, cfg.SimProcs, i)
		if err != nil {
			return err
		}
		put += b.Bytes()
	}
	for r := 0; r < cfg.AnaProcs; r++ {
		b, err := synthetic.ReaderBox(cfg.SyntheticLayout, cfg.SimProcs, cfg.AnaProcs, r)
		if err != nil {
			return err
		}
		got += b.Bytes()
	}
	if put != got {
		return fmt.Errorf("%s: writers stage %d bytes per step, readers get %d", w.refKey(v), put, got)
	}
	return nil
}

func measureTraced(w workload, v int, want reference) (*sample, error) {
	s := &sample{Groups: map[string]float64{}, Roles: map[string]float64{}}
	var j journal

	// The profiled run. fig2-quick replays core's sweep cell by cell
	// through workflow.Run, since core.Fig2 has no profile switch.
	cfgs := w.configs(v)
	for i := range cfgs {
		cfgs[i].Profile = true
	}
	results, walls, encode, err := runConfigs(cfgs)
	if err != nil {
		return nil, err
	}
	var runS float64
	var cellMs []float64
	for i, r := range results {
		j.add(r.Profile)
		runS += walls[i].Seconds()
		cellMs = append(cellMs, float64(walls[i].Microseconds())/1e3)
	}
	s.TracedWallS = runS + encode.Seconds()
	s.Runs = len(results)
	if w.fig2 {
		s.setMismatches(w, want.mismatches(reference{Raw: rawOf(results)}))
	} else {
		s.setMismatches(w, want.mismatches(outputsOf(results[0])))
	}
	results = nil

	telEncode, telTax, err := telemetryCost(w.telemetryConfig(v))
	if err != nil {
		return nil, err
	}

	dcfg := w.driverConfig(v)
	fanin, _ := netFlows(dcfg, true)
	spread, _ := netFlows(dcfg, false)
	put, query, _, err := stagingStore(dcfg)
	if err != nil {
		return nil, err
	}
	get, _, err := dimesGet(dcfg)
	if err != nil {
		return nil, err
	}
	machine, dsDeploy, dimesDeploy, err := phaseSetup(w, v)
	if err != nil {
		return nil, err
	}

	loop := float64(j.loopNs) / 1e9
	s.Layers = map[string]float64{
		"net.s":                   float64(j.groupNs["net"]) / 1e9,
		"net.alloc_mb":            float64(j.groupAlloc["net"]) / mb,
		"net.fanin_us_per_flow":   us(fanin),
		"net.spread_us_per_flow":  us(spread),
		"sim.events":              float64(j.events),
		"sim.ns_per_event":        float64(j.loopNs-j.overheadNs) / float64(j.events),
		"sim.pool_hit_rate":       float64(j.hits) / float64(j.hits+j.misses),
		"sim.loop_s":              loop,
		"workflow.outside_loop_s": runS - loop,
		"transport.s":             float64(j.groupNs["transport"]) / 1e9,
		"transport.alloc_mb":      float64(j.groupAlloc["transport"]) / mb,
		"staging.put_us":          us(put),
		"staging.query_us":        us(query),
		"dimes.get_us":            us(get),
		"dimes.deploy_s":          dimesDeploy,
		"dataspaces.deploy_s":     dsDeploy,
		"hpc.new_ms":              machine * 1e3,
		"telemetry.encode_s":      telEncode,
		"telemetry.alloc_mb":      telTax,
		"core.cell_ms":            median(cellMs),
	}
	for g, ns := range j.groupNs {
		s.Groups[g] = float64(ns) / 1e9
	}
	for r, ns := range j.roleNs {
		s.Roles[r] = float64(ns) / 1e9
	}
	return s, nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// telemetryCost runs cfg unprofiled with Metrics and Trace on, encoding
// both JSONs, and again with them off. It returns the encode time and
// the allocation the telemetry adds.
func telemetryCost(cfg workflow.Config) (encodeS, taxMB float64, err error) {
	var alloc [2]uint64
	var encode time.Duration
	for i, on := range []bool{true, false} {
		cfg.Metrics, cfg.Trace = on, on
		a0 := heapAllocs()
		_, _, enc, err := runConfigs([]workflow.Config{cfg})
		if err != nil {
			return 0, 0, err
		}
		alloc[i] = heapAllocs() - a0
		encode += enc
	}
	return encode.Seconds(), (float64(alloc[0]) - float64(alloc[1])) / mb, nil
}

// phaseSetup times the set-up phases the per-layer metrics name: the
// machine build of the workload's own configurations, and a DataSpaces
// and a DIMES deployment sized from them (fig2-quick: summed over its
// DataSpaces and its DIMES cells).
func phaseSetup(w workload, v int) (machineS, dsDeployS, dimesDeployS float64, err error) {
	own := w.configs(v)
	machineS, _, _, err = medianSetup(own)
	if err != nil {
		return 0, 0, 0, err
	}
	var ds, dm []workflow.Config
	for _, cfg := range own {
		switch {
		case w.fig2 && cfg.Method == workflow.MethodDataSpacesNative:
			ds = append(ds, cfg)
		case w.fig2 && cfg.Method == workflow.MethodDIMESNative:
			dm = append(dm, cfg)
		case !w.fig2:
			cfg.Method = workflow.MethodDataSpacesNative
			ds = append(ds, cfg)
			cfg.Method = workflow.MethodDIMESNative
			dm = append(dm, cfg)
		}
	}
	if _, dsDeployS, _, err = medianSetup(ds); err != nil {
		return 0, 0, 0, err
	}
	_, dimesDeployS, _, err = medianSetup(dm)
	return machineS, dsDeployS, dimesDeployS, err
}

// recordReferences runs every variant of every workload once and writes
// the reference file (refs.json) to out.
func recordReferences(out io.Writer) error {
	refs := map[string]reference{}
	for _, w := range workloads {
		if w.fig2 {
			res, err := runUntraced(w, 0, 0)
			if err != nil {
				return err
			}
			results, _, _, err := runConfigs(w.fig2Cells())
			if err != nil {
				return err
			}
			refs[w.refKey(0)] = reference{Cells: res.got.Cells, Raw: rawOf(results)}
			continue
		}
		for v := -2; v <= 0; v++ {
			if _, done := refs[w.refKey(v)]; done {
				continue
			}
			res, err := runUntraced(w, v, 0)
			if err != nil {
				return err
			}
			refs[w.refKey(v)] = res.got
		}
	}
	buf, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	_, err = out.Write(append(buf, '\n'))
	return err
}
