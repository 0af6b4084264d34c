package bp

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/imcstudy/imcstudy/internal/ndarray"
)

func box(t testing.TB, lo, hi []uint64) ndarray.Box {
	t.Helper()
	b, err := ndarray.NewBox(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestWriteReadRoundTrip(t *testing.T) {
	w := NewWriter()
	global := box(t, []uint64{0, 0}, []uint64{4, 8})
	data := make([]float64, 32)
	for i := range data {
		data[i] = float64(i) * 0.5
	}
	whole, err := ndarray.NewDenseBlock(global, data)
	if err != nil {
		t.Fatal(err)
	}
	// Two half-blocks from two "ranks".
	for _, lo := range []uint64{0, 2} {
		sub, err := whole.Sub(box(t, []uint64{lo, 0}, []uint64{lo + 2, 8}))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write("field", sub); err != nil {
			t.Fatal(err)
		}
	}
	buf := w.Bytes()

	r, err := NewReader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if vars := r.Vars(); len(vars) != 1 || vars[0] != "field" {
		t.Fatalf("vars = %v", vars)
	}
	if blocks := r.Blocks("field"); len(blocks) != 2 {
		t.Fatalf("blocks = %v", blocks)
	}
	region := box(t, []uint64{1, 2}, []uint64{3, 6})
	got, err := r.Read("field", region)
	if err != nil {
		t.Fatal(err)
	}
	want, err := whole.Sub(region)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Data, want.Data) {
		t.Fatalf("read = %v, want %v", got.Data, want.Data)
	}
}

// The encoding of a dense and a synthetic block is pinned byte for byte,
// so a change to the format shows up here first.
func TestEncodingIsStable(t *testing.T) {
	w := NewWriter()
	dense, err := ndarray.NewDenseBlock(box(t, []uint64{0, 2}, []uint64{2, 4}), []float64{1, -2.5, 3, 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write("u", dense); err != nil {
		t.Fatal(err)
	}
	if err := w.Write("v", ndarray.NewSyntheticBlock(box(t, []uint64{8}, []uint64{1 << 20}))); err != nil {
		t.Fatal(err)
	}
	buf := w.Bytes()
	const want = "15d9404ed40fe89b687340892af971e3687c33c92d7dad19264b0b3fe928a0bb"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf)); len(buf) != 138 || got != want {
		t.Fatalf("encoding = %d bytes, sha256 %s; want 138 bytes, %s", len(buf), got, want)
	}
}

func TestSyntheticBlocksIndexOnly(t *testing.T) {
	w := NewWriter()
	b := box(t, []uint64{0}, []uint64{1 << 20})
	if err := w.Write("v", ndarray.NewSyntheticBlock(b)); err != nil {
		t.Fatal(err)
	}
	buf := w.Bytes()
	// The payload is index-only: far smaller than 8 MB of data.
	if len(buf) > 1024 {
		t.Fatalf("synthetic file = %d bytes, want index-only", len(buf))
	}
	r, err := NewReader(buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Read("v", b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dense() {
		t.Fatal("synthetic read must stay synthetic")
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader([]byte("not a bp file, clearly")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("error = %v, want ErrBadMagic", err)
	}
	if _, err := NewReader([]byte{1}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("error = %v, want ErrTruncated", err)
	}
	// Corrupt the footer of a valid file.
	w := NewWriter()
	b := box(t, []uint64{0}, []uint64{2})
	blk, _ := ndarray.NewDenseBlock(b, []float64{1, 2})
	if err := w.Write("v", blk); err != nil {
		t.Fatal(err)
	}
	buf := w.Bytes()
	// The block's flags byte sits just before the footer; only bit 0
	// (dense) is defined.
	flagged := append([]byte(nil), buf...)
	flagged[len(flagged)-footerLen-1] |= 2
	if _, err := NewReader(flagged); err == nil {
		t.Fatal("unknown block flags accepted")
	}
	buf[len(buf)-1] ^= 0xFF
	if _, err := NewReader(buf); err == nil {
		t.Fatal("corrupt footer accepted")
	}
}

func TestReadUnknownVar(t *testing.T) {
	w := NewWriter()
	b := box(t, []uint64{0}, []uint64{2})
	blk, _ := ndarray.NewDenseBlock(b, []float64{1, 2})
	if err := w.Write("v", blk); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read("nope", b); !errors.Is(err, ErrVarNotFound) {
		t.Fatalf("error = %v, want ErrVarNotFound", err)
	}
}

// Property: any set of random 1-D rank slabs survives a file round trip
// and reassembles to the original array.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := uint64(rng.Intn(64) + 8)
		global := ndarray.WholeArray([]uint64{n})
		data := make([]float64, n)
		for i := range data {
			data[i] = rng.NormFloat64()
		}
		whole, err := ndarray.NewDenseBlock(global, data)
		if err != nil {
			return false
		}
		parts := rng.Intn(4) + 1
		boxes, err := ndarray.SplitAlong(global, 0, parts)
		if err != nil {
			return false
		}
		w := NewWriter()
		for _, bx := range boxes {
			sub, err := whole.Sub(bx)
			if err != nil {
				return false
			}
			if err := w.Write("v", sub); err != nil {
				return false
			}
		}
		r, err := NewReader(w.Bytes())
		if err != nil {
			return false
		}
		got, err := r.Read("v", global)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Decoding arbitrary mutations of a valid file must never panic.
func TestReaderMutationNeverPanics(t *testing.T) {
	w := NewWriter()
	b := box(t, []uint64{0, 0}, []uint64{4, 4})
	data := make([]float64, 16)
	blk, err := ndarray.NewDenseBlock(b, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write("v", blk); err != nil {
		t.Fatal(err)
	}
	buf := w.Bytes()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		mut := append([]byte(nil), buf...)
		for k := 0; k < rng.Intn(6)+1; k++ {
			mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on mutated file: %v", r)
				}
			}()
			r, err := NewReader(mut)
			if err != nil {
				return
			}
			_, _ = r.Read("v", b)
		}()
	}
}
