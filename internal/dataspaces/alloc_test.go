package dataspaces

import (
	"fmt"
	"slices"
	"testing"

	"github.com/imcstudy/imcstudy/internal/hpc"
	"github.com/imcstudy/imcstudy/internal/ndarray"
	"github.com/imcstudy/imcstudy/internal/retry"
	"github.com/imcstudy/imcstudy/internal/sim"
	"github.com/imcstudy/imcstudy/internal/staging"
	"github.com/imcstudy/imcstudy/internal/synthetic"
)

// stagedSpace is a 4-server space over one synthetic variable in the
// N-to-1 (mismatch) layout: every writer's slab meets every staging
// region, so each put and each get visits all four servers.
type stagedSpace struct {
	e       *sim.Engine
	m       *hpc.Machine
	writers []*Client
	readers []*Client
	blocks  []ndarray.Block
	boxes   []ndarray.Box
	version int
}

func newStagedSpace(tb testing.TB, writers, readers int) *stagedSpace {
	tb.Helper()
	const perNode = 16
	e := sim.NewEngine()
	m, err := hpc.New(e, hpc.Titan(), 2+(writers+perNode-1)/perNode+(readers+perNode-1)/perNode)
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := Deploy(m, Config{Servers: 4, Writers: writers}, m.Nodes[:2])
	if err != nil {
		tb.Fatal(err)
	}
	global, err := synthetic.GlobalBox(synthetic.LayoutMismatch, writers)
	if err != nil {
		tb.Fatal(err)
	}
	if err := sys.DefineDims("T", global); err != nil {
		tb.Fatal(err)
	}
	s := &stagedSpace{e: e, m: m}
	for i := 0; i < writers; i++ {
		wb, err := synthetic.WriterBox(synthetic.LayoutMismatch, writers, i)
		if err != nil {
			tb.Fatal(err)
		}
		blk := ndarray.NewSyntheticBlock(wb)
		c, err := sys.NewClient(m.Nodes[2+i/perNode], "sim", fmt.Sprintf("w%d", i), blk.Bytes())
		if err != nil {
			tb.Fatal(err)
		}
		s.writers, s.blocks = append(s.writers, c), append(s.blocks, blk)
	}
	readerNode := 2 + (writers+perNode-1)/perNode
	for k := 0; k < readers; k++ {
		rb, err := synthetic.ReaderBox(synthetic.LayoutMismatch, writers, readers, k)
		if err != nil {
			tb.Fatal(err)
		}
		c, err := sys.NewClient(m.Nodes[readerNode+k/perNode], "analytics", fmt.Sprintf("r%d", k), rb.Bytes())
		if err != nil {
			tb.Fatal(err)
		}
		s.readers, s.boxes = append(s.readers, c), append(s.boxes, rb)
	}
	return s
}

// messages returns how many transport messages the space has sent: each
// send is one flow on the network.
func (s *stagedSpace) messages() int64 {
	var n int64
	for _, l := range s.m.Net.Links() {
		n += l.Flows()
	}
	return n
}

// step puts, commits and gets the next version, one process per client,
// and runs the engine to completion.
func (s *stagedSpace) step(tb testing.TB) {
	s.version++
	v := s.version
	for i, w := range s.writers {
		blk := s.blocks[i]
		s.e.Spawn("writer", func(p *sim.Proc) error {
			if err := w.Put(p, "T", v, blk); err != nil {
				return err
			}
			w.Commit("T", v)
			return nil
		})
	}
	for k, r := range s.readers {
		want := s.boxes[k]
		s.e.Spawn("reader", func(p *sim.Proc) error {
			got, err := r.Get(p, "T", v, want)
			if err != nil {
				return err
			}
			if !got.Box.Equal(want) || got.Bytes() != want.Bytes() {
				return fmt.Errorf("got %s (%d B), want %s", got.Box, got.Bytes(), want)
			}
			return nil
		})
	}
	if err := s.e.Run(); err != nil {
		tb.Fatal(err)
	}
}

// TestPutGetAllocsPerMessage bounds what one Put plus one Get of a
// synthetic block over four servers allocates: at most 4 heap objects
// per transport message sent, the processes' own start-up included.
// Each version evicts the one before it (MaxVersions 1), as in a run.
func TestPutGetAllocsPerMessage(t *testing.T) {
	s := newStagedSpace(t, 1, 1)
	before := s.messages()
	s.step(t)
	msgs := s.messages() - before
	allocs := testing.AllocsPerRun(20, func() { s.step(t) })
	t.Logf("%.0f allocations for %d messages (%.2f per message)", allocs, msgs, allocs/float64(msgs))
	if allocs > 4*float64(msgs) {
		t.Fatalf("one Put and Get made %.0f allocations for %d messages, want at most 4 per message",
			allocs, msgs)
	}
}

// TestGetRetriedRegionIsNotAppendedTwice loses the reply of a get's
// first region after its query has appended the region's blocks, and
// checks that the retried fetch returns the same block and bytes as a
// fault-free Get. A retry that kept the failed attempt's blocks would
// list them twice, which Assemble rejects. Through Get itself the case
// cannot arise today: a lost reply is retried inside the send, and the
// send's give-up is not transient, so no get attempt is retried after
// its query. The test therefore drives Get's retry step with a fetch
// that drops the first reply.
func TestGetRetriedRegionIsNotAppendedTwice(t *testing.T) {
	e, m := newTitan(t, 4)
	m.Retry = retry.New(retry.Policy{MaxAttempts: 3}, nil)
	sys, err := Deploy(m, Config{Servers: 4, Writers: 1}, m.Nodes[:2])
	if err != nil {
		t.Fatal(err)
	}
	global := box(t, []uint64{0, 0}, []uint64{16, 64})
	if err := sys.DefineDims("T", global); err != nil {
		t.Fatal(err)
	}
	data := make([]float64, global.NumElems())
	for i := range data {
		data[i] = float64(i)
	}
	whole, err := ndarray.NewDenseBlock(global, data)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sys.NewClient(m.Nodes[2], "sim", "w", whole.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.NewClient(m.Nodes[3], "analytics", "r", whole.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	regions, err := sys.Regions("T")
	if err != nil {
		t.Fatal(err)
	}
	q := box(t, []uint64{3, 10}, []uint64{13, 50})
	key := staging.Key{Var: "T", Version: 1}
	e.Spawn("writer", func(p *sim.Proc) error {
		if err := w.Put(p, "T", 1, whole); err != nil {
			return err
		}
		w.Commit("T", 1)
		return nil
	})
	e.Spawn("reader", func(p *sim.Proc) error {
		want, err := r.Get(p, "T", 1, q)
		if err != nil {
			return err
		}
		var parts []ndarray.Block
		lost, attempts := false, 0
		for i, region := range regions {
			overlap, ok := q.Intersect(region)
			if !ok {
				continue
			}
			parts, err = appendRetried(p, m.Retry, "ds/get", parts, func(dst []ndarray.Block) ([]ndarray.Block, error) {
				attempts++
				out, err := r.getRegion(p, dst, "T", i, key, overlap)
				if err == nil && !lost {
					lost = true
					return out, fmt.Errorf("%w: reply of region %d", hpc.ErrMessageLost, i)
				}
				return out, err
			})
			if err != nil {
				return err
			}
		}
		if !lost {
			return fmt.Errorf("no region's reply was lost")
		}
		got, err := ndarray.Assemble(q, parts)
		if err != nil {
			return fmt.Errorf("assemble after a retried region (%d attempts): %w", attempts, err)
		}
		if !got.Box.Equal(want.Box) || got.Bytes() != want.Bytes() || !slices.Equal(got.Data, want.Data) {
			return fmt.Errorf("retried get = %s (%d B), want %s (%d B) with the same data",
				got.Box, got.Bytes(), want.Box, want.Bytes())
		}
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkClientPutGet measures one coupling step of the N-to-1 shape
// ds-nto1 runs: 64 writers put their slabs over 4 servers, commit, and
// 32 readers each get a band across the writers' slabs. msgs/op reads
// allocs/op per transport message.
func BenchmarkClientPutGet(b *testing.B) {
	s := newStagedSpace(b, 64, 32)
	s.step(b) // the first version fills the stores' maps and lists
	before := s.messages()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step(b)
	}
	b.StopTimer()
	b.ReportMetric(float64(s.messages()-before)/float64(b.N), "msgs/op")
}
