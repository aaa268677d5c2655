package rng

import (
	"math"
	"testing"
)

func TestDeterminismAndStreams(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := New(43)
	same := 0
	a2 := New(42)
	for i := 0; i < 100; i++ {
		if a2.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds coincided %d/100 times", same)
	}
	s1, s2 := NewStream(7, 1), NewStream(7, 2)
	if s1.Uint64() == s2.Uint64() {
		t.Errorf("distinct streams produced identical first draw")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(9)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d far from %v", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.Normal()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	varr := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v", mean)
	}
	if math.Abs(varr-1) > 0.02 {
		t.Errorf("normal variance = %v", varr)
	}
}

func TestGeometric(t *testing.T) {
	r := New(14)
	if g := r.Geometric(1); g != 0 {
		t.Errorf("Geometric(1) = %d", g)
	}
	const p, n = 0.25, 100000
	var s float64
	for i := 0; i < n; i++ {
		g := r.Geometric(p)
		if g < 0 {
			t.Fatalf("negative geometric %d", g)
		}
		s += float64(g)
	}
	want := (1 - p) / p // mean of failures-before-success geometric
	if math.Abs(s/n-want) > 0.1 {
		t.Errorf("geometric mean = %v, want %v", s/n, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("Geometric(0) did not panic")
		}
	}()
	r.Geometric(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := New(15)
	for trial := 0; trial < 50; trial++ {
		p := r.Perm(20)
		seen := make([]bool, 20)
		for _, v := range p {
			if v < 0 || v >= 20 || seen[v] {
				t.Fatalf("not a permutation: %v", p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(16)
	const n, draws = 5, 50000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Perm(n)[0]]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("perm[0]=%d count %d far from %v", i, c, want)
		}
	}
}

func TestNormalVector(t *testing.T) {
	r := New(17)
	out := make([]float64, 1000)
	r.NormalVector(out, 2)
	var s float64
	for _, v := range out {
		s += v * v
	}
	// E[x²] = 4; chi-square concentration makes 3.2..4.8 generous.
	if s/1000 < 3.2 || s/1000 > 4.8 {
		t.Errorf("NormalVector second moment = %v, want ≈4", s/1000)
	}
}

func TestMul64(t *testing.T) {
	hi, lo := mul64(math.MaxUint64, math.MaxUint64)
	// (2^64−1)² = 2^128 − 2^65 + 1 → hi = 2^64−2, lo = 1.
	if hi != math.MaxUint64-1 || lo != 1 {
		t.Errorf("mul64 max² = (%x, %x)", hi, lo)
	}
	hi, lo = mul64(1<<32, 1<<32)
	if hi != 1 || lo != 0 {
		t.Errorf("mul64 2^32·2^32 = (%x, %x)", hi, lo)
	}
}

// Regression test for the stream-correlation bug found by experiment E2b:
// the first Gaussian draws of streams 1 and 2 of the same seed must be
// uncorrelated (the broken seeding made them nearly identical).
func TestStreamsDecorrelated(t *testing.T) {
	const n = 20000
	var sxy, sxx, syy float64
	for k := 0; k < n; k++ {
		a := NewStream(uint64(1000+k), 1).Normal()
		b := NewStream(uint64(1000+k), 2).Normal()
		sxy += a * b
		sxx += a * a
		syy += b * b
	}
	corr := sxy / math.Sqrt(sxx*syy)
	if math.Abs(corr) > 0.03 {
		t.Errorf("first-draw correlation between streams = %v, want ≈0", corr)
	}
}

func TestSplitMix64KnownGood(t *testing.T) {
	// Reference values from the canonical splitmix64.c with seed 0.
	s := uint64(0)
	want := []uint64{0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F}
	for i, w := range want {
		if got := SplitMix64(&s); got != w {
			t.Errorf("SplitMix64 draw %d = %x, want %x", i, got, w)
		}
	}
}

// TestNormalFillMatchesNormal: a fill of every length from 0 to 65,
// entered with and without a pending spare, writes the bits that as many
// Normal calls return and leaves the generator in the same state (the
// spare and its flag included); NormalVector does the same against
// stddev·Normal().
func TestNormalFillMatchesNormal(t *testing.T) {
	for n := 0; n <= 65; n++ {
		for _, spare := range []bool{false, true} {
			checkNormalFill(t, uint64(1000+n), n, spare)
		}
	}
}

func checkNormalFill(t *testing.T, seed uint64, n int, spare bool) {
	t.Helper()
	fill, scalar := New(seed), New(seed)
	if spare {
		fill.Normal()
		scalar.Normal()
	}
	got := make([]float64, n)
	fill.NormalFill(got)
	for i := range got {
		if want := scalar.Normal(); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("n=%d spare=%v: out[%d] = %v, Normal gives %v", n, spare, i, got[i], want)
		}
	}
	if *fill != *scalar {
		t.Fatalf("n=%d spare=%v: state %+v after the fill, %+v after Normal calls", n, spare, *fill, *scalar)
	}

	vector, scaled := New(seed), New(seed)
	if spare {
		vector.Normal()
		scaled.Normal()
	}
	vector.NormalVector(got, 1.5)
	for i := range got {
		if want := 1.5 * scaled.Normal(); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("n=%d spare=%v: NormalVector out[%d] = %v, want %v", n, spare, i, got[i], want)
		}
	}
	if *vector != *scaled {
		t.Fatalf("n=%d spare=%v: NormalVector state %+v, want %+v", n, spare, *vector, *scaled)
	}
}

// TestBernoulliMatchesFloat64: Bernoulli compares the scaled draw with
// p·2⁵³; it must agree with Float64() < p on every p, at the draw itself
// and one ulp either side of it, and on the edge values.
func TestBernoulliMatchesFloat64(t *testing.T) {
	ps := []float64{0, math.Copysign(0, -1), 5e-324, 1e-300, 1e-9, 1.0 / (1 << 53), 0.15, 0.5,
		1 - 1.0/(1<<53), 1, 1.5, -1, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	a, b := New(77), New(77)
	for i := 0; i < 20000; i++ {
		peek := *b
		u := peek.Float64()
		for _, p := range append(ps, u, math.Nextafter(u, 2), math.Nextafter(u, -1)) {
			x, y := *a, *b
			if got, want := x.Bernoulli(p), y.Float64() < p; got != want {
				t.Fatalf("draw %d, p=%v (u=%v): Bernoulli %v, Float64() < p %v", i, p, u, got, want)
			}
		}
		a.Bernoulli(0.5)
		b.Float64()
	}
	if *a != *b {
		t.Fatal("Bernoulli and Float64 consumed different draws")
	}
}

func FuzzNormalFill(f *testing.F) {
	f.Add(uint64(1), uint8(0), false)
	f.Add(uint64(2), uint8(1), true)
	f.Add(uint64(3), uint8(33), true)
	f.Add(uint64(4), uint8(64), false)
	f.Fuzz(func(t *testing.T, seed uint64, n uint8, spare bool) {
		checkNormalFill(t, seed, int(n), spare)
	})
}
