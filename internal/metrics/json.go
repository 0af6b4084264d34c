package metrics

import (
	"encoding/json"
	"math"
	"strconv"
)

// The JSON appenders below are the one number and string formatter the
// telemetry encoders share (EncodeJSON here, the Chrome trace exporter
// in internal/trace). They reproduce encoding/json byte for byte, so the
// streaming encoders write exactly what json.Marshal / MarshalIndent
// wrote before them; FuzzJSONAppendMatchesEncodingJSON holds them to it.

// unsupportedFloat reports a float that JSON cannot represent (NaN or
// ±Inf). Its message matches encoding/json's.
type unsupportedFloat float64

func (f unsupportedFloat) Error() string {
	return "json: unsupported value: " + strconv.FormatFloat(float64(f), 'g', -1, 64)
}

// AppendJSONFloat appends f formatted as encoding/json formats a
// float64: the shortest 'f' form, or 'e' form (with a one-digit
// negative exponent written as e-7, not e-07) when |f| < 1e-6 or
// |f| >= 1e21. NaN and ±Inf return dst unchanged and an error.
func AppendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, unsupportedFloat(f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// AppendJSONString appends s as a quoted JSON string escaped exactly as
// encoding/json escapes it (HTML-safe: <, > and & become \u003c,
// \u003e and \u0026; U+2028/U+2029 and invalid UTF-8 are escaped too). Plain
// printable ASCII, which every testbed name is, is copied directly;
// anything else goes through json.Marshal.
func AppendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
