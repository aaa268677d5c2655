//go:build amd64 && !race

package atomicfloat

import "unsafe"

// cx16 reports whether the CPU has CMPXCHG16B (CPUID leaf 1, ECX bit 13),
// read once: GOAMD64=v1 does not guarantee the instruction.
var cx16 = hasCX16()

// pairRunMin is the shortest run FetchAddScaledRun sends through the pair
// kernel. Measured, the kernel loses on runs of 2 coordinates, where the
// call and the peel cost more than the locked instruction they save, and
// wins from 8 up; 16 leaves a margin, and sparse scatter runs, about 1.25
// coordinates long, stay scalar (DESIGN §4).
const pairRunMin = 16

// pairChunk caps the pairs one addPairs call applies. An assembly loop
// has no asynchronous preemption point, so a 2¹⁸-coordinate run in one
// call would hold up a stop-the-world for about 1.7 ms; 512 pairs take a
// few microseconds.
const pairChunk = 512

func hasCX16() bool

// addPairs applies src[2k], src[2k+1] to the aligned pair at cells+16k
// for k < pairs with one LOCK CMPXCHG16B each (pairs_amd64.s).
//
//go:noescape
func addPairs(cells *Float64, src *float64, pairs int, scale float64)

// addPairRun is FetchAddScaledRun's long-run path on a unit-stride run
// (len(cells) == len(src)): every coordinate gets exactly one atomic
// Add(scale*src[k]), in ascending order, two per locked instruction. A
// first cell 8 bytes off a 16-byte boundary and an odd last cell are
// added alone.
//
//asgd:hotpath
func addPairRun(cells []Float64, src []float64, scale float64) {
	cells = cells[:len(src)]
	if uintptr(unsafe.Pointer(&cells[0]))%16 != 0 {
		cells[0].Add(scale * src[0])
		cells, src = cells[1:], src[1:]
	}
	for len(src) >= 2 {
		n := min(len(src)/2, pairChunk)
		addPairs(&cells[0], &src[0], n, scale)
		cells, src = cells[2*n:], src[2*n:]
	}
	if len(src) == 1 {
		cells[0].Add(scale * src[0])
	}
}
