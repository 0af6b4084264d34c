// Command imcprof reads simulator self-profiles: the run journals
// produced by internal/prof (written by `imcreport -profile`) that
// attribute the simulator's own wall-clock time (not the modelled
// system's virtual time) to (component kind, event site) pairs. It is
// the measurement half of the "profile before parallelizing" discipline:
// the report names the event sites any simulator-performance work must
// attack, and the diff mode quantifies a before/after pair.
//
// Usage:
//
//	imcprof report [-top N] profile.json
//	imcprof diff [-top N] before.json after.json
//
// The profile JSON has two sections: "deterministic" (event counts,
// virtual times, queue depths — byte-identical across runs, safe to
// golden-gate) and "walltime" (wall nanoseconds, allocation bytes —
// informational only, excluded from every digest).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/imcstudy/imcstudy/internal/prof"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "imcprof:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: imcprof report|diff ... (see -h of each)")
	}
	switch args[0] {
	case "report":
		return report(args[1:], w)
	case "diff":
		return diffCmd(args[1:], w)
	default:
		return fmt.Errorf("unknown subcommand %q; want report or diff", args[0])
	}
}

func readProfile(path string) (*prof.Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return prof.Decode(f)
}

// site joins the deterministic and wall halves of one attribution row.
type site struct {
	kind, name string
	events     int64
	virtualS   float64
	wallNs     int64
	allocBytes int64
}

// sites zips a profile's two per-site tables (emitted in the same
// (kind, site) order by prof.Snapshot).
func sites(p *prof.Profile) []site {
	out := make([]site, 0, len(p.Deterministic.Sites))
	for i, d := range p.Deterministic.Sites {
		s := site{kind: d.Kind, name: d.Site, events: d.Events, virtualS: d.VirtualS}
		if i < len(p.Walltime.Sites) {
			s.wallNs = p.Walltime.Sites[i].WallNs
			s.allocBytes = p.Walltime.Sites[i].AllocBytes
		}
		out = append(out, s)
	}
	return out
}

// report prints the run journal: headline numbers, the top-N hot event
// sites by wall time, and the wall-vs-virtual breakdown per component
// kind.
func report(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("imcprof report", flag.ContinueOnError)
	topN := fs.Int("top", 15, "number of hot event sites to print")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: imcprof report [-top N] profile.json")
	}
	p, err := readProfile(fs.Arg(0))
	if err != nil {
		return err
	}
	d := p.Deterministic
	wallS := p.WallSeconds()
	fmt.Fprintf(w, "profile: %s  (%s)\n", labelOr(p, fs.Arg(0)), p.Schema)
	ratio := "n/a"
	if d.VirtualS > 0 {
		ratio = fmt.Sprintf("wall/virtual %.3g", wallS/d.VirtualS)
	}
	fmt.Fprintf(w, "virtual %.3fs   wall %.3fs   (%s)\n", d.VirtualS, wallS, ratio)
	fmt.Fprintf(w, "events %d (%d callbacks)   %.0f events/wall-s\n",
		d.Events, d.Callbacks, p.EventsPerWallSecond())
	overheadPct := 0.0
	if p.Walltime.WallNs > 0 {
		overheadPct = 100 * float64(p.Walltime.OverheadNs) / float64(p.Walltime.WallNs)
	}
	fmt.Fprintf(w, "pool hit rate %.1f%%   max queue depth %d   engine-loop overhead %.1f%%\n\n",
		100*p.PoolHitRate(), d.MaxQueueDepth, overheadPct)

	ss := sites(p)
	sort.SliceStable(ss, func(i, j int) bool { return ss[i].wallNs > ss[j].wallNs })
	n := *topN
	if n > len(ss) {
		n = len(ss)
	}
	fmt.Fprintf(w, "top %d event sites by wall time:\n", n)
	fmt.Fprintf(w, "%10s %7s %7s %9s %8s %10s %9s  %-6s %s\n",
		"wall s", "wall %", "cum %", "events", "ns/ev", "virt s", "alloc MB", "kind", "site")
	var cum int64
	for _, s := range ss[:n] {
		cum += s.wallNs
		perEv := 0.0
		if s.events > 0 {
			perEv = float64(s.wallNs) / float64(s.events)
		}
		fmt.Fprintf(w, "%10.3f %7.1f %7.1f %9d %8.0f %10.3f %9.1f  %-6s %s\n",
			float64(s.wallNs)/1e9, pct(s.wallNs, p.Walltime.WallNs), pct(cum, p.Walltime.WallNs),
			s.events, perEv, s.virtualS, float64(s.allocBytes)/1e6, s.kind, s.name)
	}

	fmt.Fprintf(w, "\nwall vs virtual by component kind:\n")
	kinds := map[string]*site{}
	order := []string{}
	for _, s := range ss {
		k := kinds[s.kind]
		if k == nil {
			k = &site{kind: s.kind}
			kinds[s.kind] = k
			order = append(order, s.kind)
		}
		k.events += s.events
		k.virtualS += s.virtualS
		k.wallNs += s.wallNs
		k.allocBytes += s.allocBytes
	}
	sort.Strings(order)
	fmt.Fprintf(w, "%-6s %9s %11s %9s %7s\n", "kind", "events", "virtual s", "wall s", "wall %")
	for _, name := range order {
		k := kinds[name]
		fmt.Fprintf(w, "%-6s %9d %11.3f %9.3f %7.1f\n",
			k.kind, k.events, k.virtualS, float64(k.wallNs)/1e9, pct(k.wallNs, p.Walltime.WallNs))
	}
	return nil
}

// diffCmd compares two profiles site by site, sorted by wall-time
// delta, for before/after comparisons of simulator changes.
func diffCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("imcprof diff", flag.ContinueOnError)
	topN := fs.Int("top", 15, "number of site deltas to print")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: imcprof diff [-top N] before.json after.json")
	}
	a, err := readProfile(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := readProfile(fs.Arg(1))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "before: %s\nafter:  %s\n", labelOr(a, fs.Arg(0)), labelOr(b, fs.Arg(1)))
	fmt.Fprintf(w, "wall    %9.3fs -> %9.3fs  (%+.1f%%)\n",
		a.WallSeconds(), b.WallSeconds(), delta(float64(a.Walltime.WallNs), float64(b.Walltime.WallNs)))
	fmt.Fprintf(w, "virtual %9.3fs -> %9.3fs  (%+.1f%%)\n",
		a.Deterministic.VirtualS, b.Deterministic.VirtualS,
		delta(a.Deterministic.VirtualS, b.Deterministic.VirtualS))
	fmt.Fprintf(w, "events  %10d -> %10d  (%+.1f%%)\n\n",
		a.Deterministic.Events, b.Deterministic.Events,
		delta(float64(a.Deterministic.Events), float64(b.Deterministic.Events)))

	type row struct {
		key  string
		a, b site
	}
	merged := map[string]*row{}
	order := []string{}
	add := func(ss []site, after bool) {
		for _, s := range ss {
			key := s.kind + "\x00" + s.name
			r := merged[key]
			if r == nil {
				r = &row{key: key}
				merged[key] = r
				order = append(order, key)
			}
			if after {
				r.b = s
			} else {
				r.a = s
			}
		}
	}
	add(sites(a), false)
	add(sites(b), true)
	rows := make([]*row, 0, len(order))
	for _, key := range order {
		rows = append(rows, merged[key])
	}
	sort.SliceStable(rows, func(i, j int) bool {
		di := rows[i].b.wallNs - rows[i].a.wallNs
		dj := rows[j].b.wallNs - rows[j].a.wallNs
		return abs64(di) > abs64(dj)
	})
	n := *topN
	if n > len(rows) {
		n = len(rows)
	}
	fmt.Fprintf(w, "top %d site deltas by wall time:\n", n)
	fmt.Fprintf(w, "%13s %9s %9s %13s %9s  %-6s %s\n",
		"wall s before", "after", "delta", "events before", "after", "kind", "site")
	for _, r := range rows[:n] {
		kind, name, _ := strings.Cut(r.key, "\x00")
		fmt.Fprintf(w, "%13.3f %9.3f %+9.3f %13d %9d  %-6s %s\n",
			float64(r.a.wallNs)/1e9, float64(r.b.wallNs)/1e9,
			float64(r.b.wallNs-r.a.wallNs)/1e9, r.a.events, r.b.events, kind, name)
	}
	return nil
}

func labelOr(p *prof.Profile, fallback string) string {
	if p.Label != "" {
		return p.Label
	}
	return fallback
}

func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

func delta(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return 100 * (b - a) / a
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
