package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"andorsched/internal/core"
)

// encodeRowReference is the oracle appendRunRow must match: the bytes
// json.Encoder.Encode writes for the row, or its error.
func encodeRowReference(row *RunRow) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(row)
	return buf.Bytes(), err
}

// checkRowParity compares appendRunRow with the encoder on row, appending
// after a non-empty prefix so a failed append must also leave dst as it
// was.
func checkRowParity(t *testing.T, row *RunRow) {
	t.Helper()
	want, wantErr := encodeRowReference(row)
	prefix := []byte("prefix\n")
	got, err := appendRunRow(append([]byte(nil), prefix...), row)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("row %+v: appendRunRow error %v, encoding/json error %v", row, err, wantErr)
	}
	if wantErr != nil {
		if !bytes.Equal(got, prefix) {
			t.Fatalf("row %+v: failed append changed dst to %q", row, got)
		}
		return
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("row %+v:\nappendRunRow %q\nencoding/json %q", row, got[len(prefix):], want)
	}
}

// scalarFloats lists a row's scalar float fields.
func scalarFloats(r *RunRow) []*float64 {
	return []*float64{&r.DeadlineS, &r.FinishS, &r.EnergyJ, &r.ActiveJ, &r.OverheadJ, &r.IdleJ}
}

// TestAppendRunRowMatchesEncoder pins appendRunRow byte for byte to
// encoding/json over the float formatting edges (the f/e format switch at
// 1e-6 and 1e21, the e-07 → e-7 clean-up, signed zero, subnormals), the
// omitempty slices, every scheme name and the unsupported values.
func TestAppendRunRowMatchesEncoder(t *testing.T) {
	base := RunRow{Run: 7, Scheme: "GSS", DeadlineS: 0.5, FinishS: 0.4, MetDeadline: true,
		EnergyJ: 1.25, ActiveJ: 1.0, OverheadJ: 0.05, IdleJ: 0.2, SpeedChanges: 3}
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 123456789.125,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 1e-7, 9.99e-7, 5e-10, 1.5e-100,
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), 1e22, 1.7e308,
		-1e-7, -1e21, -2.5e-300,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072e-308,
		math.MaxFloat64, -math.MaxFloat64,
	}
	for _, f := range floats {
		for field := range scalarFloats(&base) {
			row := base
			*scalarFloats(&row)[field] = f
			checkRowParity(t, &row)
		}
		row := base
		row.ClassGrossJ = []float64{f, 1}
		row.ClassIdleJ = []float64{0.5, f}
		checkRowParity(t, &row)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field := range scalarFloats(&base) {
			row := base
			*scalarFloats(&row)[field] = bad
			checkRowParity(t, &row)
		}
		row := base
		row.ClassGrossJ = []float64{1, bad}
		row.ClassIdleJ = []float64{1, 2}
		checkRowParity(t, &row)
		row.ClassGrossJ, row.ClassIdleJ = []float64{1, 2}, []float64{bad, 2}
		checkRowParity(t, &row)
	}

	long := make([]int, 500)
	for i := range long {
		long[i] = i % 7
	}
	for _, path := range [][]int{nil, {}, {0}, {1, 0, 2}, {-3, 1 << 40}, long} {
		row := base
		row.Path = path
		checkRowParity(t, &row)
	}
	for _, classes := range [][2][]float64{
		{nil, nil}, {{}, {}}, {{1.5}, {0.25}}, {{0.7, 1.2, 3e-9}, {0.1, 0, 2}},
	} {
		row := base
		row.ClassGrossJ, row.ClassIdleJ = classes[0], classes[1]
		checkRowParity(t, &row)
	}

	names := []string{"", `odd "name"\`, "<&>", "tab\tnl\n", "\x01", "é", "\u2028", "\xff"}
	for _, sc := range append(append([]core.Scheme{}, core.Schemes...), core.ExtendedSchemes...) {
		names = append(names, sc.String())
	}
	for _, name := range names {
		row := base
		row.Scheme = name
		checkRowParity(t, &row)
	}
	for _, n := range []int{0, -1, math.MaxInt64, math.MinInt64} {
		row := base
		row.Run, row.SpeedChanges, row.MetDeadline = n, n, false
		checkRowParity(t, &row)
	}
}

// FuzzAppendRunRow checks appendRunRow against encoding/json on arbitrary
// rows: any float bits (NaN and infinities included), counts, scheme
// strings, class breakdowns and OR paths.
func FuzzAppendRunRow(f *testing.F) {
	f.Add(7, "GSS", uint64(0x3fe0000000000000), uint64(0x3eb0c6f7a0b5ed8d), true, 3, []byte{1, 0, 2}, uint8(0))
	f.Add(0, "AS", uint64(0x8000000000000000), uint64(0x44b52d02c7e14af6), false, 0, []byte{}, uint8(2))
	f.Add(-5, "<ORA>", uint64(1), uint64(0x7ff0000000000000), false, -1, []byte(nil), uint8(3))
	f.Fuzz(func(t *testing.T, run int, scheme string, a, b uint64, met bool, changes int, path []byte, classes uint8) {
		fa, fb := math.Float64frombits(a), math.Float64frombits(b)
		row := RunRow{Run: run, Scheme: scheme, DeadlineS: fa, FinishS: fb, MetDeadline: met,
			EnergyJ: fa + fb, ActiveJ: fa * 0.5, OverheadJ: fb / 3, IdleJ: -fa, SpeedChanges: changes}
		if nc := int(classes % 4); nc > 0 {
			row.ClassGrossJ = make([]float64, nc)
			row.ClassIdleJ = make([]float64, nc)
			for c := 0; c < nc; c++ {
				row.ClassGrossJ[c] = fa / float64(c+1)
				row.ClassIdleJ[c] = fb * float64(c)
			}
		}
		if path != nil {
			row.Path = make([]int, len(path))
			for i, p := range path {
				row.Path[i] = int(int8(p))
			}
		}
		checkRowParity(t, &row)
	})
}
