package atomicfloat

import (
	"math"
	"sync"
	"testing"
	"unsafe"
)

// loadAt reads coordinate i of v through the gather path.
func loadAt(v *Vector, i int) float64 {
	var x [1]float64
	v.GatherInto(x[:], []int{i})
	return x[0]
}

// storeAt sets coordinate i of v through the run-store path.
func storeAt(v *Vector, i int, x float64) { v.StoreRun(i, []float64{x}) }

func TestFloat64LoadStore(t *testing.T) {
	var f Float64
	if f.Load() != 0 {
		t.Errorf("zero value = %v", f.Load())
	}
	f.Store(3.25)
	if f.Load() != 3.25 {
		t.Errorf("Load = %v", f.Load())
	}
}

func TestFloat64AddReturnsPrior(t *testing.T) {
	var f Float64
	f.Store(1.5)
	if old := f.Add(2); old != 1.5 {
		t.Errorf("Add returned %v, want prior 1.5", old)
	}
	if f.Load() != 3.5 {
		t.Errorf("after Add = %v", f.Load())
	}
}

// The key linearizability property: concurrent fetch&adds never lose
// updates (unlike plain read-modify-write on a shared float).
func TestConcurrentAddNoLostUpdates(t *testing.T) {
	var f Float64
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				f.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := f.Load(); got != workers*perWorker {
		t.Errorf("total = %v, want %d", got, workers*perWorker)
	}
}

func TestVectorBasics(t *testing.T) {
	for _, layout := range []Layout{Packed, Padded} {
		v := New(4, layout)
		if v.Dim() != 4 {
			t.Fatalf("Dim = %d", v.Dim())
		}
		storeAt(v, 2, 7)
		if loadAt(v, 2) != 7 {
			t.Errorf("Load(2) = %v", loadAt(v, 2))
		}
		if old := v.FetchAdd(2, -3); old != 7 {
			t.Errorf("FetchAdd prior = %v", old)
		}
		if loadAt(v, 2) != 4 {
			t.Errorf("after FetchAdd = %v", loadAt(v, 2))
		}
		dst := make([]float64, 4)
		v.LoadAll(dst)
		if dst[2] != 4 || dst[0] != 0 {
			t.Errorf("LoadAll = %v", dst)
		}
		v.StoreAll([]float64{1, 2, 3, 4})
		if loadAt(v, 0) != 1 || loadAt(v, 3) != 4 {
			t.Errorf("StoreAll wrong")
		}
	}
}

func TestVectorPanics(t *testing.T) {
	v := New(2, Packed)
	for name, fn := range map[string]func(){
		"loadall":  func() { v.LoadAll(make([]float64, 3)) },
		"storeall": func() { v.StoreAll(make([]float64, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with wrong dim did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestConcurrentVectorFetchAdd(t *testing.T) {
	v := New(8, Padded)
	const workers, perWorker = 4, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				v.FetchAdd(i%8, 0.5)
			}
		}(w)
	}
	wg.Wait()
	var total float64
	for i := 0; i < 8; i++ {
		total += loadAt(v, i)
	}
	want := float64(workers*perWorker) * 0.5
	if math.Abs(total-want) > 1e-9 {
		t.Errorf("total = %v, want %v", total, want)
	}
}

// layouts is the layout matrix shared by the layout-generic tests.
var layouts = []struct {
	name string
	kind Layout
}{
	{"packed", Packed},
	{"banked", Banked},
	{"padded", Padded},
}

func TestNewSelectsLayout(t *testing.T) {
	for _, l := range layouts {
		v := New(5, l.kind)
		want := 8 * 5
		if l.kind == Padded {
			want *= 8
		}
		if v.MemBytes() != want {
			t.Errorf("New(5, %v).MemBytes() = %d, want %d", l.kind, v.MemBytes(), want)
		}
		if v.Dim() != 5 {
			t.Errorf("New(5, %v).Dim() = %d", l.kind, v.Dim())
		}
	}
}

// Banked and Padded promise that cells[0] sits on a cache-line boundary;
// the guarantee is what makes a bank (8 consecutive coordinates) occupy
// exactly one line.
func TestAlignedLayoutsStartOnCacheLine(t *testing.T) {
	for _, l := range layouts {
		if l.kind == Packed {
			continue
		}
		for _, d := range []int{1, 7, 8, 9, 63, 64, 100, 1 << 12} {
			v := New(d, l.kind)
			addr := uintptr(unsafe.Pointer(&v.cells[0]))
			if addr%cacheLineBytes != 0 {
				t.Errorf("%s d=%d: cells[0] at %#x not %d-byte aligned",
					l.name, d, addr, cacheLineBytes)
			}
		}
	}
	if v := New(0, Banked); v.Dim() != 0 || v.MemBytes() != 0 {
		t.Errorf("empty banked vector: Dim=%d MemBytes=%d", v.Dim(), v.MemBytes())
	}
}

// The documented ~8x memory cost of the padded layout, pinned exactly:
// MemBytes is 8 bytes per coordinate for Packed/Banked and 64 for Padded.
func TestPaddedMemoryCostIs8x(t *testing.T) {
	const d = 1024
	packed, banked, padded := New(d, Packed), New(d, Banked), New(d, Padded)
	if packed.MemBytes() != 8*d || banked.MemBytes() != 8*d {
		t.Errorf("packed/banked MemBytes = %d/%d, want %d",
			packed.MemBytes(), banked.MemBytes(), 8*d)
	}
	if padded.MemBytes() != 64*d {
		t.Errorf("padded MemBytes = %d, want %d", padded.MemBytes(), 64*d)
	}
	if r := padded.MemBytes() / banked.MemBytes(); r != 8 {
		t.Errorf("padded/banked memory ratio = %d, want 8", r)
	}
}

// FetchAddScaledRun/StoreRun must agree with the per-coordinate primitives on
// every layout, including runs at odd offsets and lengths that straddle
// bank boundaries.
func TestBulkRunsMatchScalarOps(t *testing.T) {
	const d = 37 // deliberately not a multiple of the bank width
	for _, l := range layouts {
		v := New(d, l.kind)
		ref := make([]float64, d)
		init := make([]float64, d)
		for i := range init {
			init[i] = float64(i) * 0.25
			ref[i] = init[i]
		}
		v.StoreAll(init)
		for _, run := range []struct{ start, n int }{
			{0, d}, {0, 1}, {5, 3}, {7, 9}, {31, 6}, {d - 1, 1}, {d, 0}, {3, 0},
		} {
			deltas := make([]float64, run.n)
			for k := range deltas {
				deltas[k] = float64(run.start+k) + 0.5
			}
			v.FetchAddScaledRun(run.start, deltas, 1)
			for k, dk := range deltas {
				ref[run.start+k] += dk
			}
		}
		got := make([]float64, d)
		v.LoadAll(got)
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("%s: after FetchAddScaledRun(…, 1), v[%d] = %v, want %v", l.name, i, got[i], ref[i])
			}
		}
		v.StoreRun(5, []float64{-1, -2, -3})
		ref[5], ref[6], ref[7] = -1, -2, -3
		v.LoadAll(got)
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("%s: after StoreRun, v[%d] = %v, want %v", l.name, i, got[i], ref[i])
			}
		}
		// FetchAddScaledRun(start, src, scale) must be bit-identical to
		// per-coordinate Add(scale*src[k]).
		src := []float64{0.125, -3, 7.75, 0.1}
		const scale = -0.01
		v.FetchAddScaledRun(9, src, scale)
		for k, x := range src {
			ref[9+k] += scale * x
		}
		v.LoadAll(got)
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("%s: after FetchAddScaledRun, v[%d] = %x, want %x", l.name, i, got[i], ref[i])
			}
		}
	}
}

func TestBulkRunsPanicOutOfRange(t *testing.T) {
	for _, l := range layouts {
		v := New(8, l.kind)
		for name, fn := range map[string]func(){
			"unitrun-past-end":   func() { v.FetchAddScaledRun(5, make([]float64, 4), 1) },
			"unitrun-negative":   func() { v.FetchAddScaledRun(-1, make([]float64, 2), 1) },
			"storerun-past-end":  func() { v.StoreRun(7, make([]float64, 2)) },
			"storerun-negative":  func() { v.StoreRun(-2, make([]float64, 1)) },
			"scaledrun-past-end": func() { v.FetchAddScaledRun(6, make([]float64, 3), 2) },
			"scaledrun-negative": func() { v.FetchAddScaledRun(-1, make([]float64, 1), 2) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s/%s did not panic", l.name, name)
					}
				}()
				fn()
			}()
		}
	}
}

// The bulk paths are inner-loop primitives of the hogwild steppers; they
// must stay allocation-free on every layout.
func TestBulkRunsAllocFree(t *testing.T) {
	const d = 256
	for _, l := range layouts {
		v := New(d, l.kind)
		deltas := make([]float64, d)
		dst := make([]float64, d)
		idx := []int{0, 3, 17, 42, 200, d - 1}
		gath := make([]float64, len(idx))
		if n := testing.AllocsPerRun(100, func() {
			v.FetchAddScaledRun(0, deltas, -0.5)
			v.StoreRun(0, deltas)
			v.LoadAll(dst)
			v.GatherInto(gath, idx)
		}); n != 0 {
			t.Errorf("%s: bulk paths allocate %v per run, want 0", l.name, n)
		}
	}
}
