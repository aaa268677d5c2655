package atomicfloat

import "testing"

// FuzzVectorOpsAcrossLayouts drives the same operation sequence —
// FetchAdd, Store, FetchAddScaledRun (at scale 1 and at a fractional
// scale), StoreRun at odd offsets and lengths, LoadAll, GatherInto —
// through all three layouts and a plain []float64 reference, and demands
// bit-identical state everywhere after every op. Out-of-range runs must
// panic on every layout without corrupting state.
func FuzzVectorOpsAcrossLayouts(f *testing.F) {
	f.Add(uint8(8), []byte{})                                 // empty program
	f.Add(uint8(8), []byte{0, 2, 12, 1, 5, 200})              // scalar add/store
	f.Add(uint8(16), []byte{2, 3, 7, 3, 9, 5})                // runs at odd offsets
	f.Add(uint8(64), []byte{2, 60, 9, 2, 0, 64})              // run straddling banks
	f.Add(uint8(4), []byte{2, 200, 3, 3, 3, 9})               // negative / past-end starts
	f.Add(uint8(33), []byte{0, 32, 1, 2, 31, 2, 3, 0, 33, 1}) // boundary mix
	f.Add(uint8(24), []byte{4, 2, 11, 4, 120, 5})             // scaled runs, incl. out of range
	f.Fuzz(func(t *testing.T, dim uint8, data []byte) {
		d := int(dim)%96 + 1
		vecs := []*Vector{New(d, Packed), New(d, Banked), New(d, Padded)} // in layouts order
		ref := make([]float64, d)
		buf := make([]float64, d)
		check := func(op int) {
			t.Helper()
			for li, v := range vecs {
				v.LoadAll(buf)
				for i := range ref {
					if buf[i] != ref[i] {
						t.Fatalf("op %d: %v layout v[%d] = %v, want %v",
							op, layouts[li].name, i, buf[i], ref[i])
					}
				}
			}
		}
		for k := 0; k+2 < len(data); k += 3 {
			opcode, pos, val := data[k]%5, int(int8(data[k+1])), float64(int8(data[k+2]))/4
			switch opcode {
			case 0: // scalar FetchAdd
				i := ((pos % d) + d) % d
				for _, v := range vecs {
					v.FetchAdd(i, val)
				}
				ref[i] += val
			case 1: // scalar Store
				i := ((pos % d) + d) % d
				for _, v := range vecs {
					v.Store(i, val)
				}
				ref[i] = val
			case 2, 3, 4: // FetchAddScaledRun(…, 1) / StoreRun / FetchAddScaledRun, possibly out of range
				n := (int(data[k+2]) % (d + 2))
				run := make([]float64, n)
				for j := range run {
					run[j] = float64(int8(data[k+1]+byte(j))) / 8
				}
				scale := -0.25
				if opcode == 2 {
					scale = 1
				}
				inRange := pos >= 0 && pos+n <= d
				for li, v := range vecs {
					func() {
						defer func() {
							if r := recover(); (r == nil) == !inRange {
								t.Fatalf("op %d: %v layout run(start=%d,n=%d): panic=%v, in-range=%v",
									k/3, layouts[li].name, pos, n, r != nil, inRange)
							}
						}()
						if opcode == 3 {
							v.StoreRun(pos, run)
						} else {
							v.FetchAddScaledRun(pos, run, scale)
						}
					}()
				}
				if inRange {
					for j, x := range run {
						if opcode == 3 {
							ref[pos+j] = x
						} else {
							ref[pos+j] += scale * x
						}
					}
				}
			}
			check(k / 3)
		}
		// GatherInto over the full support must agree with LoadAll.
		idx := make([]int, d)
		for i := range idx {
			idx[i] = d - 1 - i // reversed, exercising non-unit access order
		}
		gath := make([]float64, d)
		for li, v := range vecs {
			v.GatherInto(gath, idx)
			for kk, i := range idx {
				if gath[kk] != ref[i] {
					t.Fatalf("%v layout GatherInto[%d] = %v, want ref[%d] = %v",
						layouts[li].name, kk, gath[kk], i, ref[i])
				}
			}
		}
	})
}
