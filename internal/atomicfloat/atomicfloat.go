// Package atomicfloat provides lock-free atomic float64 cells and vectors.
//
// The paper's Algorithm 1 applies gradient updates with an atomic
// fetch&add on each model coordinate. Go (and most ISAs) have no hardware
// float fetch&add, so Add is implemented as the standard CAS retry loop on
// the IEEE-754 bit pattern, which is linearizable read-modify-write with
// the same semantics the paper assumes. This package backs the real-thread
// Hogwild runtime (internal/hogwild); the discrete-step simulator
// (internal/shm) models fetch&add directly.
package atomicfloat

import (
	"math"
	"sync/atomic"
	"unsafe"
)

// Float64 is an atomic float64 cell. The zero value holds 0.
type Float64 struct {
	bits atomic.Uint64
}

// Load returns the current value.
func (f *Float64) Load() float64 {
	return math.Float64frombits(f.bits.Load())
}

// Store sets the value.
func (f *Float64) Store(v float64) {
	f.bits.Store(math.Float64bits(v))
}

// Add atomically adds delta and returns the value BEFORE the addition
// (fetch&add semantics, matching the paper's primitive).
func (f *Float64) Add(delta float64) float64 {
	for {
		oldBits := f.bits.Load()
		old := math.Float64frombits(oldBits)
		newBits := math.Float64bits(old + delta)
		if f.bits.CompareAndSwap(oldBits, newBits) {
			return old
		}
	}
}

// cacheLineBytes is the assumed cache line size for padding and bank
// alignment.
const cacheLineBytes = 64

// cellsPerLine is the number of 8-byte cells in one cache line — the bank
// width of the banked layout.
const cellsPerLine = cacheLineBytes / 8

// padShift is the log2 stride of the padded layout: 8 cells of 8 bytes
// give each coordinate its own cache line.
const padShift = 3

// Layout selects the memory layout of a Vector.
type Layout uint8

const (
	// Packed stores coordinates contiguously with no alignment
	// guarantee: minimal memory, coordinates may false-share, and a
	// cache line's worth of coordinates may straddle two lines.
	Packed Layout = iota
	// Banked stores coordinates contiguously like Packed but aligns the
	// allocation to a cache-line boundary, partitioning the vector into
	// 64-byte banks of 8 coordinates each: bank b holds coordinates
	// [8b, 8b+8), no bank straddles two lines, and bulk run operations
	// walk whole banks with unit stride. Same memory as Packed (plus
	// one line of alignment slack); the layout of choice at large d.
	Banked
	// Padded gives each coordinate its own (aligned) cache line: writes
	// to distinct coordinates never false-share, at ~8x the memory of
	// Packed/Banked — one 64-byte line per 8-byte coordinate. Viable
	// for small models only; at d = 10⁶ it spends half a gigabyte on
	// padding, which is why large dimensions use Banked instead.
	Padded
)

// String names the layout for benchmarks and reports.
func (l Layout) String() string {
	switch l {
	case Packed:
		return "packed"
	case Banked:
		return "banked"
	case Padded:
		return "padded"
	default:
		return "unknown"
	}
}

// Vector is a fixed-dimension vector of atomic float64 coordinates.
//
// Three layouts are supported — see Layout. All share one representation:
// a single cell slice indexed with a power-of-two stride (coordinate i
// lives at cells[i<<shift], with shift 0 for Packed/Banked and 3 for
// Padded), so the per-coordinate accessors are branch-free: the old split
// packed/padded fields cost a taken-or-not branch inside every FetchAdd
// and Load of the hogwild inner loop. Banked and Padded additionally
// align cells[0] to a cache-line boundary.
type Vector struct {
	cells []Float64
	shift uint8
}

// alignedCells allocates n cells whose first element sits on a cache-line
// boundary, by over-allocating one line's worth of slack and slicing to
// the first aligned cell. The Go allocator already line-aligns large
// objects, so the slack is usually zero waste beyond the reservation.
func alignedCells(n int) []Float64 {
	if n == 0 {
		return nil
	}
	raw := make([]Float64, n+cellsPerLine-1)
	addr := uintptr(unsafe.Pointer(&raw[0]))
	off := 0
	if rem := addr % cacheLineBytes; rem != 0 {
		off = int((cacheLineBytes - rem) / 8)
	}
	return raw[off : off+n : off+n]
}

// New returns an all-zero atomic vector of dimension d in the given
// layout (see Layout for what each costs and guarantees; MemBytes reports
// Padded's exact 8x).
func New(d int, layout Layout) *Vector {
	switch layout {
	case Banked:
		return &Vector{cells: alignedCells(d)}
	case Padded:
		return &Vector{cells: alignedCells(d << padShift), shift: padShift}
	default:
		return &Vector{cells: make([]Float64, d)}
	}
}

// Dim returns the dimension.
func (v *Vector) Dim() int { return len(v.cells) >> v.shift }

// MemBytes reports the cell storage the layout addresses, in bytes —
// 8·d for Packed/Banked, 64·d for Padded (the documented ~8x cost;
// alignment slack of up to one cache line is excluded).
func (v *Vector) MemBytes() int { return len(v.cells) * int(unsafe.Sizeof(Float64{})) }

// Load returns coordinate i.
func (v *Vector) Load(i int) float64 { return v.cells[i<<v.shift].Load() }

// Store sets coordinate i.
func (v *Vector) Store(i int, x float64) { v.cells[i<<v.shift].Store(x) }

// FetchAdd atomically adds delta to coordinate i, returning the prior value.
func (v *Vector) FetchAdd(i int, delta float64) float64 {
	return v.cells[i<<v.shift].Add(delta)
}

// LoadAll copies every coordinate into dst (dst must have length Dim) —
// the bulk view-read path of the dense steppers. The copy is NOT an
// atomic snapshot of the whole vector: each coordinate is loaded
// individually, yielding the per-coordinate "inconsistent view" v_t of
// the paper's Section 6, which is exactly what a lock-free reader
// observes. The packed layout gets a dedicated loop so the compiler sees
// a unit-stride scan.
//
//asgd:hotpath
func (v *Vector) LoadAll(dst []float64) {
	if len(dst) != v.Dim() {
		panic("atomicfloat: LoadAll dst dimension mismatch")
	}
	if v.shift == 0 {
		cells := v.cells
		for i := range dst {
			dst[i] = cells[i].Load()
		}
		return
	}
	s := v.shift
	for i := range dst {
		dst[i] = v.cells[i<<s].Load()
	}
}

// GatherInto loads the listed coordinates, dst[k] = X[idx[k]] — the
// sparse view-read path: a sparse stepper gathers exactly its planned
// support in O(nnz) instead of scanning the model. dst must have length
// len(idx); the same inconsistent-view caveat as LoadAll applies.
//
//asgd:hotpath
func (v *Vector) GatherInto(dst []float64, idx []int) {
	if len(dst) != len(idx) {
		panic("atomicfloat: GatherInto dst/idx length mismatch")
	}
	if v.shift == 0 {
		cells := v.cells
		for k, j := range idx {
			dst[k] = cells[j].Load()
		}
		return
	}
	s := v.shift
	for k, j := range idx {
		dst[k] = v.cells[j<<s].Load()
	}
}

// FetchAddScaledRun atomically adds scale·src[k] to coordinate start+k
// for every k, in ascending coordinate order — the bulk apply primitive.
// Each coordinate's fetch&add is individually atomic (the run as a whole
// is not a transaction, matching the paper's per-register model) and its
// arithmetic is exactly Add(scale*src[k]), so the stored bits equal those
// of len(src) FetchAdd calls. The win is that the shift and bounds work
// is hoisted out of the inner loop, leaving a unit-stride CAS scan in the
// packed/banked layouts, and that the scaled deltas never round-trip
// through a scratch buffer, which at d = 10⁶ removes two full vector
// traversals from every dense apply. On amd64 a packed or banked run of
// at least pairRunMin coordinates goes through a CMPXCHG16B kernel that
// applies two coordinates per locked instruction, each still one atomic
// add with the same arithmetic (addPairRun, DESIGN §4). Panics if the run
// [start, start+len(src)) leaves [0, Dim).
//
//asgd:hotpath
func (v *Vector) FetchAddScaledRun(start int, src []float64, scale float64) {
	if v.shift == 0 {
		cells := v.cells[start : start+len(src)] // one bounds check for the run
		if cx16 && len(src) >= pairRunMin {
			addPairRun(cells, src, scale)
			return
		}
		for k, x := range src {
			cells[k].Add(scale * x)
		}
		return
	}
	s := v.shift
	if start < 0 || start+len(src) > v.Dim() {
		panic("atomicfloat: FetchAddScaledRun out of range")
	}
	for k, x := range src {
		v.cells[(start+k)<<s].Add(scale * x)
	}
}

// StoreRun stores src[k] into coordinate start+k for every k, in
// ascending coordinate order — the bulk store primitive behind StoreAll
// and the batch-flush paths. The same hoisted-bounds, unit-stride
// structure as FetchAddScaledRun; panics if the run leaves [0, Dim).
//
//asgd:hotpath
func (v *Vector) StoreRun(start int, src []float64) {
	if v.shift == 0 {
		cells := v.cells[start : start+len(src)]
		for k, x := range src {
			cells[k].Store(x)
		}
		return
	}
	s := v.shift
	if start < 0 || start+len(src) > v.Dim() {
		panic("atomicfloat: StoreRun out of range")
	}
	for k, x := range src {
		v.cells[(start+k)<<s].Store(x)
	}
}

// StoreAll sets every coordinate from src (length must equal Dim).
func (v *Vector) StoreAll(src []float64) {
	if len(src) != v.Dim() {
		panic("atomicfloat: StoreAll src dimension mismatch")
	}
	v.StoreRun(0, src)
}
