package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzJSONAppendMatchesEncodingJSON holds the shared appenders to
// encoding/json: identical bytes for every string and float64, and an
// error from AppendJSONFloat exactly when json.Marshal errors.
func FuzzJSONAppendMatchesEncodingJSON(f *testing.F) {
	for _, s := range []string{"", "plain/name", "a<b", "a>b", "a&b", `a"b`, `a\b`, "a\u2028b", "a\u2029b", "\xff\xfe invalid", "\x00\x01\x1f\x7f\b\f\n\r\t", "héllo 世界"} {
		f.Add(s, math.Float64bits(0))
	}
	for _, v := range []float64{math.Copysign(0, -1), 1e-7, 1e-6, 1e21, 5e-324, math.MaxFloat64, -1.5e-300, 123456.789, math.NaN(), math.Inf(-1)} {
		f.Add("", math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, s string, bits uint64) {
		prefix := []byte("[")
		want, _ := json.Marshal(s)
		if got := AppendJSONString(prefix, s); !bytes.Equal(got, append([]byte("["), want...)) {
			t.Fatalf("AppendJSONString(%q) = %s, json.Marshal = %s", s, got[1:], want)
		}
		v := math.Float64frombits(bits)
		want, wantErr := json.Marshal(v)
		got, err := AppendJSONFloat(prefix, v)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("AppendJSONFloat(%v) error %v, json.Marshal error %v", v, err, wantErr)
		}
		if err != nil {
			if !bytes.Equal(got, prefix) || err.Error() != wantErr.Error() {
				t.Fatalf("AppendJSONFloat(%v) = %q, %q; want the prefix back and %q", v, got, err, wantErr)
			}
			return
		}
		if !bytes.Equal(got, append([]byte("["), want...)) {
			t.Fatalf("AppendJSONFloat(%v) = %s, json.Marshal = %s", v, got[1:], want)
		}
	})
}
