package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// appendRunRow appends row's NDJSON line to dst: the exact bytes
// json.NewEncoder(w).Encode(row) writes — same field order and names, the
// same omitempty rules, the same float formatting and the trailing
// newline — without reflection, so Monte-Carlo block jobs can encode rows
// on the workers at a fraction of the encoder's cost and without
// allocating. A NaN or infinite float fails the row the way
// encoding/json does: dst comes back unchanged with an error.
func appendRunRow(dst []byte, row *RunRow) ([]byte, error) {
	for _, f := range [...]float64{row.DeadlineS, row.FinishS, row.EnergyJ, row.ActiveJ, row.OverheadJ, row.IdleJ} {
		if err := checkJSONFloat(f); err != nil {
			return dst, err
		}
	}
	for _, fs := range [...][]float64{row.ClassGrossJ, row.ClassIdleJ} {
		for _, f := range fs {
			if err := checkJSONFloat(f); err != nil {
				return dst, err
			}
		}
	}
	dst = append(dst, `{"run":`...)
	dst = strconv.AppendInt(dst, int64(row.Run), 10)
	dst = append(dst, `,"scheme":`...)
	dst = appendJSONString(dst, row.Scheme)
	dst = append(dst, `,"deadline_s":`...)
	dst = appendJSONFloat(dst, row.DeadlineS)
	dst = append(dst, `,"finish_s":`...)
	dst = appendJSONFloat(dst, row.FinishS)
	dst = append(dst, `,"met_deadline":`...)
	dst = strconv.AppendBool(dst, row.MetDeadline)
	dst = append(dst, `,"energy_j":`...)
	dst = appendJSONFloat(dst, row.EnergyJ)
	dst = append(dst, `,"active_j":`...)
	dst = appendJSONFloat(dst, row.ActiveJ)
	dst = append(dst, `,"overhead_j":`...)
	dst = appendJSONFloat(dst, row.OverheadJ)
	dst = append(dst, `,"idle_j":`...)
	dst = appendJSONFloat(dst, row.IdleJ)
	dst = append(dst, `,"speed_changes":`...)
	dst = strconv.AppendInt(dst, int64(row.SpeedChanges), 10)
	dst = appendJSONFloats(dst, `,"class_gross_j":[`, row.ClassGrossJ)
	dst = appendJSONFloats(dst, `,"class_idle_j":[`, row.ClassIdleJ)
	if len(row.Path) > 0 { // omitempty
		dst = append(dst, `,"path":[`...)
		for i, c := range row.Path {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(c), 10)
		}
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...), nil
}

// checkJSONFloat reports the error encoding/json gives for a float it
// cannot represent.
func checkJSONFloat(f float64) error {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	return nil
}

// appendJSONFloat formats a finite f as encoding/json does for a float64:
// the shortest representation, in exponent form below 1e-6 and from 1e21
// up, with a one-digit negative exponent cleaned of its leading zero.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendJSONFloats appends an omitempty float array field: nothing for a
// nil or empty fs, else key (which opens the array) and the values.
func appendJSONFloats(dst []byte, key string, fs []float64) []byte {
	if len(fs) == 0 {
		return dst
	}
	dst = append(dst, key...)
	for i, f := range fs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONFloat(dst, f)
	}
	return append(dst, ']')
}

// appendJSONString quotes s. Scheme names are plain ASCII and take the
// copy loop; anything encoding/json would escape (controls, quotes,
// backslashes, HTML-sensitive or non-ASCII bytes) goes through
// json.Marshal so the escaping stays exactly the library's.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
