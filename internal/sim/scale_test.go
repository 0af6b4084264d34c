package sim

import (
	"fmt"
	"testing"
)

func TestScaleManyFlows(t *testing.T) {
	e := NewEngine()
	n := e.NewNet()
	const senders = 8192
	const servers = 64
	recv := make([]*Link, servers)
	for i := range recv {
		recv[i] = n.NewLink("recv", 5.5e9)
	}
	for i := 0; i < senders; i++ {
		src := n.NewLink("src", 5.5e9)
		dst := recv[i%servers]
		e.Spawn("s", func(p *Proc) error {
			return p.Transfer(n, 20e6, src, dst)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 128 flows per receiver at 5.5 GB/s: 128*20MB/5.5GB/s = 0.4654 s
	if !almostEq(e.Now(), 128*20e6/5.5e9, 1e-3) {
		t.Fatalf("end = %v", e.Now())
	}
}

// runFanIn simulates senders fanning into servers in staggered batches
// (so flows arrive and retire while others are mid-transfer, exercising
// the incremental rate recomputation rather than one static component),
// and returns the virtual completion time.
func runFanIn(tb testing.TB, senders, servers int, full bool) Time {
	e := NewEngine()
	n := e.NewNet()
	n.ForceFullRecompute(full)
	recv := make([]*Link, servers)
	for i := range recv {
		recv[i] = n.NewLink("recv", 5.5e9)
	}
	for i := 0; i < senders; i++ {
		src := n.NewLink("src", 5.5e9)
		dst := recv[i%servers]
		start := Time(i%7) * 1e-3
		e.Spawn("s", func(p *Proc) error {
			if err := p.Sleep(start); err != nil {
				return err
			}
			return p.Transfer(n, 20e6, src, dst)
		})
	}
	if err := e.Run(); err != nil {
		tb.Fatal(err)
	}
	return e.Now()
}

// TestScaleFanInIncremental pins the incremental rate assignment to the
// full recomputation at the 10k-sender scale the PR targets.
func TestScaleFanInIncremental(t *testing.T) {
	senders, servers := 10240, 64
	if testing.Short() {
		senders = 1024
	}
	inc := runFanIn(t, senders, servers, false)
	full := runFanIn(t, senders, servers, true)
	if inc != full {
		t.Fatalf("incremental end %v != full recompute end %v", inc, full)
	}
}

// BenchmarkScaleFanIn measures the event core at 1k/4k/10k concurrent
// senders — the machine-room sizes of the PR's scale target. Compare
// with ForceFullRecompute via BenchmarkScaleFanInFullRecompute to see
// what the incremental fair-share path buys.
func BenchmarkScaleFanIn(b *testing.B) {
	for _, senders := range []int{1024, 4096, 10240} {
		b.Run(fmt.Sprintf("senders=%d", senders), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runFanIn(b, senders, 64, false)
			}
		})
	}
}

func BenchmarkScaleFanInFullRecompute(b *testing.B) {
	for _, senders := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("senders=%d", senders), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runFanIn(b, senders, 64, true)
			}
		})
	}
}

// matchedNet builds a fixed N-to-N network shaped like the ds-matched
// workload: 682 writers at 16 per node put to 42 staging servers at 2
// per node, writer w into region w*64/682 of 64 (region i belongs to
// server i mod 42), each flow crossing its writer node's outbound NIC
// and its server node's inbound NIC.
func matchedNet() *Net {
	const writers, perNode, servers, regions = 682, 16, 42, 64
	n := NewEngine().NewNet()
	out := make([]*Link, (writers+perNode-1)/perNode)
	for i := range out {
		out[i] = n.NewLink(fmt.Sprintf("w%d/out", i), 5.5e9)
	}
	in := make([]*Link, servers/2)
	for i := range in {
		in[i] = n.NewLink(fmt.Sprintf("s%d/in", i), 5.5e9)
	}
	for w := 0; w < writers; w++ {
		s := (w * regions / writers) % servers
		n.StartFlow(20.48e6, out[w/perNode], in[s/2])
	}
	return n
}

// BenchmarkFillMatched times one full progressive filling of the
// ds-matched-shaped network: the solver's cost per recomputation with
// fixed inputs, apart from the event loop.
func BenchmarkFillMatched(b *testing.B) {
	n := matchedNet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.assignRates()
	}
}

// BenchmarkFlushMatched times what one completion costs the solver on
// the ds-matched-shaped network: retire the oldest flow, then one
// incremental flush (compaction, component walk, fill and the next
// completion's scheduling). The network drains one flow per iteration
// and is rebuilt, untimed, when empty, so an op averages over sizes
// from 682 flows down to one.
func BenchmarkFlushMatched(b *testing.B) {
	b.ReportAllocs()
	var n *Net
	for i := 0; i < b.N; i++ {
		if n == nil || len(n.flows) == 0 {
			b.StopTimer()
			n = matchedNet()
			n.flush()
			b.StartTimer()
		}
		n.detach(n.flows[0])
		n.flows = n.flows[1:]
		n.flush()
	}
}
