package vec

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

func TestSymSetIsSymmetric(t *testing.T) {
	s := NewSym(2)
	s.Set(0, 1, 1)
	if s.Data[0*2+1] != 1 || s.Data[1*2+0] != 1 {
		t.Errorf("Set(0, 1, 1) left Data = %v, want both off-diagonal entries 1", s.Data)
	}
}

func TestAddOuterGram(t *testing.T) {
	s := NewSym(2)
	if err := s.AddOuter(1, Dense{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddOuter(1, Dense{3, 0}); err != nil {
		t.Fatal(err)
	}
	// [1 2;2 4] + [9 0;0 0] = [10 2;2 4]
	want := []float64{10, 2, 2, 4}
	for i, w := range want {
		if math.Abs(s.Data[i]-w) > 1e-12 {
			t.Errorf("Data[%d] = %v, want %v", i, s.Data[i], w)
		}
	}
	if err := s.AddOuter(1, Dense{1}); err == nil {
		t.Error("dim mismatch accepted")
	}
}

func TestEigenvaluesDiagonal(t *testing.T) {
	// Each case is a matrix with a closed-form spectrum, checked within
	// 1e-12·λmax (an absolute 1e-12 for the zero matrix).
	diag := func(vals ...float64) *Sym {
		s := NewSym(len(vals))
		for i, v := range vals {
			s.Set(i, i, v)
		}
		return s
	}
	// The (2, −1) tridiagonal Toeplitz matrix of order n has eigenvalues
	// 2 − 2cos(kπ/(n+1)), k = 1..n (ascending in k).
	toeplitz := func(n int) (*Sym, []float64) {
		s := NewSym(n)
		want := make([]float64, n)
		for i := 0; i < n; i++ {
			s.Set(i, i, 2)
			if i+1 < n {
				s.Set(i, i+1, -1)
			}
			want[i] = 2 - 2*math.Cos(float64(i+1)*math.Pi/float64(n+1))
		}
		return s, want
	}
	type tc struct {
		name string
		s    *Sym
		want []float64
	}
	cases := []tc{
		{"distinct diagonal", diag(3, 1, 2), []float64{1, 2, 3}},
		{"repeated diagonal", diag(5, 2, 5, 2, 5), []float64{2, 2, 5, 5, 5}},
		{"zero", NewSym(6), make([]float64, 6)},
		{"empty", NewSym(0), nil},
	}
	for _, n := range []int{1, 2, 64, 256} {
		s, want := toeplitz(n)
		cases = append(cases, tc{fmt.Sprintf("toeplitz n=%d", n), s, want})
	}
	for _, c := range cases {
		eig, err := c.s.Eigenvalues()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(eig) != len(c.want) {
			t.Fatalf("%s: %d eigenvalues, want %d", c.name, len(eig), len(c.want))
		}
		tol := 1e-12
		if n := len(c.want); n > 0 {
			tol *= math.Max(1, c.want[n-1])
		}
		for i, w := range c.want {
			if math.Abs(eig[i]-w) > tol {
				t.Errorf("%s: eig[%d] = %v, want %v", c.name, i, eig[i], w)
			}
		}
	}
}

func TestEigenvalues2x2Known(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	s := NewSym(2)
	s.Set(0, 0, 2)
	s.Set(0, 1, 1)
	s.Set(1, 1, 2)
	lo, hi, err := s.ExtremeEigenvalues()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lo-1) > 1e-10 || math.Abs(hi-3) > 1e-10 {
		t.Errorf("extremes = (%v, %v), want (1, 3)", lo, hi)
	}
}

func TestEigenvaluesNonFiniteErrors(t *testing.T) {
	// QL never converges on NaN or ±Inf; the iteration cap must turn
	// that into an error rather than a hang or a silent NaN spectrum.
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		s := NewSym(3)
		s.Set(0, 0, 1)
		s.Set(1, 1, 1)
		s.Set(2, 2, 1)
		s.Set(0, 2, v)
		if eig, err := s.Eigenvalues(); err == nil {
			t.Errorf("entry %v: eigenvalues %v, want an error", v, eig)
		}
	}
}

func TestEigenvaluesTraceAndPSD(t *testing.T) {
	// Gram matrices are PSD with trace = sum of eigenvalues.
	s := NewSym(4)
	rows := []Dense{
		{1, 2, 0, -1},
		{0.5, -1, 2, 0},
		{1, 1, 1, 1},
	}
	for _, r := range rows {
		if err := s.AddOuter(1, r); err != nil {
			t.Fatal(err)
		}
	}
	eig, err := s.Eigenvalues()
	if err != nil {
		t.Fatal(err)
	}
	var trace, sum float64
	for i := 0; i < 4; i++ {
		trace += s.Data[i*s.N+i]
	}
	for _, e := range eig {
		sum += e
		if e < -1e-9 {
			t.Errorf("Gram matrix has negative eigenvalue %v", e)
		}
	}
	if math.Abs(trace-sum) > 1e-9*(1+trace) {
		t.Errorf("trace %v != eigenvalue sum %v", trace, sum)
	}
	// Rank ≤ 3, so λmin ≈ 0.
	if eig[0] > 1e-9 {
		t.Errorf("rank-deficient Gram should have zero eigenvalue, got %v", eig[0])
	}
}

// FuzzAddOuterMatchesDense checks that AddOuter's zero skipping is
// bit-exact: rows with zeros, negative zeros and negatives are
// accumulated through AddOuter, through AddOuterSparse of their CSR
// form and through the full d×d rank-one product, and every entry must
// agree in its bits, sign of zero included.
func FuzzAddOuterMatchesDense(f *testing.F) {
	f.Add(uint8(4), []byte{}, int8(4))
	f.Add(uint8(4), []byte{1, 0, 4, 0, 0, 0, 0, 0}, int8(4))               // one sparse row, one all-zero row
	f.Add(uint8(3), []byte{4, 5, 6, 7, 252, 251}, int8(-3))                // ±0 among negatives
	f.Add(uint8(8), []byte{9, 130, 0, 17, 255, 3, 4, 8}, int8(0))          // w = 0
	f.Add(uint8(69), bytes.Repeat([]byte{5, 0, 250, 128, 7}, 28), int8(2)) // d = 70, two rows
	f.Fuzz(func(t *testing.T, dim uint8, data []byte, wRaw int8) {
		d := int(dim)%96 + 1 // both sides of AddOuter's 64-entry stack buffer
		w := float64(wRaw) / 4
		got, fromCSR, want := NewSym(d), NewSym(d), make([]float64, d*d)
		for len(data) >= d {
			x := make(Dense, d)
			for k, b := range data[:d] {
				// A quarter of the entries are ±0; the rest are small
				// signed values with inexact products.
				if b&3 == 0 {
					x[k] = math.Copysign(0, float64(int8(b)))
				} else {
					x[k] = float64(int8(b)) / 3
				}
			}
			data = data[d:]
			if err := got.AddOuter(w, x); err != nil {
				t.Fatal(err)
			}
			if err := fromCSR.AddOuterSparse(w, sparseOf(x)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < d; i++ {
				xi := w * x[i]
				for j := 0; j < d; j++ {
					want[i*d+j] += xi * x[j]
				}
			}
		}
		for k, v := range want {
			if math.Float64bits(got.Data[k]) != math.Float64bits(v) {
				t.Fatalf("entry (%d,%d) = %v, want %v (bits differ)", k/d, k%d, got.Data[k], v)
			}
			if math.Float64bits(fromCSR.Data[k]) != math.Float64bits(v) {
				t.Fatalf("AddOuterSparse entry (%d,%d) = %v, want %v (bits differ)", k/d, k%d, fromCSR.Data[k], v)
			}
		}
	})
}

// FuzzCholeskyCertificate checks the full-rank certificate of the
// least-squares oracles: CholeskyShifted at σ = 1e-12 + 1e-9·tr(G). A
// Gram matrix it accepts must have an Eigenvalues λmin above 1e-12, so
// the certificate never accepts what the eigenvalue test rejects; one
// whose λmin exceeds 2σ must be accepted, so the certificate decides the
// common case; and a NaN or ±Inf entry must be rejected. Few rows make
// singular Grams, and a diagonal shift of 10^-k moves λmin across the
// threshold.
func FuzzCholeskyCertificate(f *testing.F) {
	f.Add(uint8(3), []byte{8, 0, 0, 0, 8, 0, 0, 0, 8}, uint8(0), uint16(0))
	f.Add(uint8(3), []byte{8, 16, 16, 16, 8, 240}, uint8(13), uint16(0)) // rank 2, λmin ≈ 1e-13
	f.Add(uint8(3), []byte{8, 16, 16, 16, 8, 240}, uint8(11), uint16(0)) // rank 2, λmin ≈ 1e-11
	f.Add(uint8(4), bytes.Repeat([]byte{3, 250, 7, 1, 0}, 8), uint8(9), uint16(0))
	f.Add(uint8(2), []byte{8, 1, 1, 8}, uint8(0), uint16(1))                            // NaN at (0, 0)
	f.Add(uint8(5), bytes.Repeat([]byte{9, 2, 0, 255, 4}, 9), uint8(0), uint16(0x4103)) // +Inf off the diagonal
	f.Add(uint8(5), bytes.Repeat([]byte{9, 2, 0, 255, 4}, 9), uint8(0), uint16(0x101))  // −Inf at (3, 1)
	f.Fuzz(func(t *testing.T, dim uint8, data []byte, shift uint8, poison uint16) {
		d := int(dim)%24 + 1
		s := NewSym(d)
		for ; len(data) >= d; data = data[d:] {
			x := make(Dense, d)
			for k, b := range data[:d] {
				x[k] = float64(int8(b)) / 8
			}
			if err := s.AddOuter(0.25, x); err != nil {
				t.Fatal(err)
			}
		}
		if shift != 0 {
			e := math.Pow(10, -float64(shift%16))
			for i := 0; i < d; i++ {
				s.Data[i*d+i] += e
			}
		}
		poisoned := poison&1 != 0
		if poisoned {
			i, j := int(poison>>1)%d, int(poison>>8)%d
			s.Set(i, j, []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[int(poison>>5)%3])
		}
		var tr float64
		for i := 0; i < d; i++ {
			tr += s.Data[i*s.N+i]
		}
		sigma := 1e-12 + 1e-9*tr
		certify := func(sigma float64) bool {
			factor := &Sym{N: d, Data: append([]float64(nil), s.Data...)}
			return factor.CholeskyShifted(sigma)
		}
		ok := certify(sigma)
		if poisoned {
			// σ is then non-finite too; a finite σ must not help.
			if ok || certify(1e-12) {
				t.Fatalf("accepted a matrix with a non-finite entry: %v", s.Data)
			}
			return
		}
		lo, _, err := s.ExtremeEigenvalues()
		switch {
		case ok && err != nil:
			t.Fatalf("accepted, but QL fails: %v", err)
		case ok && !(lo > 1e-12):
			t.Fatalf("accepted with QL λmin %g ≤ 1e-12 (σ = %g)", lo, sigma)
		case !ok && err == nil && lo > 2*sigma:
			t.Fatalf("rejected with QL λmin %g > 2σ = %g", lo, 2*sigma)
		}
	})
}
