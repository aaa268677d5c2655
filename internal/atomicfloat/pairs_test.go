package atomicfloat

import (
	"encoding/binary"
	"math"
	"sync"
	"testing"
)

// specials are the values the pair-kernel tests seed cells and runs with:
// NaNs with distinct payloads (one signalling), both infinities, both
// zeros, subnormals and values whose sums overflow.
var specials = []float64{
	math.NaN(),
	math.Float64frombits(0x7ff8_0000_0000_0123),
	math.Float64frombits(0xfff0_0000_0000_0001),
	math.Inf(1), math.Inf(-1),
	0, math.Copysign(0, -1),
	5e-324, -2.2e-308, math.Float64frombits(0x000f_ffff_ffff_ffff),
	1, -1.5, 0.1, 1e308, -1e308,
}

// checkRunMatchesScalar applies src at start through FetchAddScaledRun on
// one vector and through len(src) scalar FetchAdd calls on a twin, both
// seeded with init, and requires every coordinate's bits to agree.
func checkRunMatchesScalar(t *testing.T, l Layout, init []float64, start int, src []float64, scale float64) {
	t.Helper()
	v, ref := New(len(init), l), New(len(init), l)
	v.StoreAll(init)
	ref.StoreAll(init)
	v.FetchAddScaledRun(start, src, scale)
	for k, x := range src {
		ref.FetchAdd(start+k, scale*x)
	}
	for i := range init {
		if got, want := math.Float64bits(v.Load(i)), math.Float64bits(ref.Load(i)); got != want {
			t.Fatalf("%v run(start=%d, n=%d, scale=%v): coordinate %d = %#016x, scalar FetchAdd gives %#016x",
				l, start, len(src), scale, i, got, want)
		}
	}
}

// TestPairRunsMatchScalarFetchAdd: on Packed and Banked, a run of every
// length around the pair threshold, from starts in both 16-byte phases,
// leaves the same bits as len(src) scalar FetchAdd calls, special values
// included. (Builds without the pair kernel compare the scalar loop.)
func TestPairRunsMatchScalarFetchAdd(t *testing.T) {
	lengths := []int{0, 1, 2, pairRunMin - 1, pairRunMin, pairRunMin + 1, 1000}
	for _, l := range []Layout{Packed, Banked} {
		for _, n := range lengths {
			if n < 0 {
				continue
			}
			for start := 0; start < 4; start++ {
				for _, scale := range []float64{1, -0.01, -0.25, 1e300, math.Float64frombits(0x7ff8_0000_0000_0abc)} {
					// Coordinate i pairs cell special i%m with run
					// special (i/m)%m: each m² consecutive coordinates
					// meet every combination, two NaN payloads included.
					m := len(specials)
					init := make([]float64, start+n+3)
					for i := range init {
						init[i] = specials[i%m]
					}
					src := make([]float64, n)
					for k := range src {
						src[k] = specials[((start+k)/m)%m]
					}
					checkRunMatchesScalar(t, l, init, start, src, scale)
				}
			}
		}
	}
}

// FuzzPairRunMatchesScalar drives the same comparison with fuzzed bit
// patterns for the cells, the run and the scale.
func FuzzPairRunMatchesScalar(f *testing.F) {
	f.Add(uint8(0), uint16(64), uint64(0x3ff0_0000_0000_0000), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(1), uint16(65), uint64(0xbf84_7ae1_47ae_147b), []byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f})
	f.Add(uint8(3), uint16(1000), uint64(0x7ff8_0000_0000_0001), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f, 1})
	f.Add(uint8(2), uint16(7), uint64(0x8000_0000_0000_0000), []byte{})
	f.Fuzz(func(t *testing.T, start uint8, n uint16, scaleBits uint64, data []byte) {
		s, length := int(start%4), int(n%1100)
		// word returns the i-th 8-byte word of data, read cyclically;
		// with too little data it falls back to the special values.
		word := func(i int) float64 {
			if len(data) < 8 {
				return specials[i%len(specials)]
			}
			off := (i * 8) % (len(data) - 7)
			return math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		}
		init := make([]float64, s+length+2)
		for i := range init {
			init[i] = word(i + 1)
		}
		src := make([]float64, length)
		for k := range src {
			src[k] = word(3*k + 2)
		}
		layout := Packed
		if start&4 != 0 {
			layout = Banked
		}
		checkRunMatchesScalar(t, layout, init, s, src, math.Float64frombits(scaleBits))
	})
}

// TestPairRunsNoLostUpdates: four goroutines each apply 3,000 runs of +1
// over 4,097 coordinates, two from start 0 and two from start 1, so pairs
// race against each other and against the peeled first coordinate. Every
// coordinate must end at exactly the number of runs that covered it.
func TestPairRunsNoLostUpdates(t *testing.T) {
	const workers, runs, n = 4, 3000, 4097
	for _, l := range []Layout{Packed, Banked} {
		v := New(n+1, l)
		ones := make([]float64, n)
		for k := range ones {
			ones[k] = 1
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(start int) {
				defer wg.Done()
				for r := 0; r < runs; r++ {
					v.FetchAddScaledRun(start, ones, 1)
				}
			}(w % 2)
		}
		wg.Wait()
		for i := 0; i <= n; i++ {
			want := float64(workers * runs)
			if i == 0 || i == n {
				want /= 2 // covered by one start's runs only
			}
			if got := v.Load(i); got != want {
				t.Fatalf("%v: coordinate %d = %v after %d concurrent runs, want %v", l, i, got, workers*runs, want)
			}
		}
	}
}
