package sfc

import "testing"

func TestBitsForAndPaddedExtent(t *testing.T) {
	cases := []struct {
		extent uint64
		bits   int
		padded uint64
	}{
		{1, 1, 2}, {2, 1, 2}, {3, 2, 4}, {4, 2, 4}, {5, 3, 8},
		{2048, 11, 2048}, {2049, 12, 4096}, {262144, 18, 262144},
	}
	for _, tc := range cases {
		if got := BitsFor(tc.extent); got != tc.bits {
			t.Errorf("BitsFor(%d) = %d, want %d", tc.extent, got, tc.bits)
		}
		if got := PaddedExtent(tc.extent); got != tc.padded {
			t.Errorf("PaddedExtent(%d) = %d, want %d", tc.extent, got, tc.padded)
		}
	}
}

// The paper's Fig 6 example: a 4096 x (64*2048) global array pads to a
// 262144-wide index space on the longest dimension.
func TestPaperIndexSpaceExample(t *testing.T) {
	longest := uint64(64 * 2048)
	if got := PaddedExtent(longest); got != 131072 {
		t.Fatalf("PaddedExtent(%d) = %d, want 131072", longest, got)
	}
	// With per-processor size 4096x2048 and 64 processors the global
	// second dimension is 131072; the paper quotes the padded index space
	// as 262144^2 for the 4096x2048-per-proc case at the next power of 2.
	if got := PaddedExtent(64 * 4096); got != 262144 {
		t.Fatalf("PaddedExtent(%d) = %d, want 262144", uint64(64*4096), got)
	}
}
