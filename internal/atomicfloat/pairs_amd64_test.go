//go:build amd64 && !race

package atomicfloat

import (
	"math"
	"os"
	"strings"
	"testing"
	"unsafe"
)

// TestLongRunsTakePairPath fails when the CPU has CMPXCHG16B but long runs
// no longer reach the pair kernel. Detection is checked against the
// kernel's own CPU flags where /proc/cpuinfo exists. The path is then
// observed through aliasing: with src[k] reading cell k, a run from start
// 1 adds cell k-1 into cell k. The scalar loop reads cell k-1 after
// updating it; the pair kernel forms both sums of a pair before its CAS,
// so the second lane reads the old value and the result differs. A run
// one below the threshold must still match the scalar loop.
func TestLongRunsTakePairPath(t *testing.T) {
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		listed := false
		for _, line := range strings.Split(string(info), "\n") {
			if strings.HasPrefix(line, "flags") && strings.Contains(line+" ", " cx16 ") {
				listed = true
				break
			}
		}
		if listed != cx16 {
			t.Fatalf("CPUID reports CX16 = %v, /proc/cpuinfo lists cx16 = %v", cx16, listed)
		}
	}
	if !cx16 {
		t.Skip("no CMPXCHG16B on this CPU: every run takes the scalar loop")
	}
	for _, l := range []Layout{Packed, Banked} {
		for _, n := range []int{pairRunMin - 1, pairRunMin} {
			v, ref := New(n+1, l), New(n+1, l)
			for i := 0; i <= n; i++ {
				storeAt(v, i, 1)
				storeAt(ref, i, 1)
			}
			src := unsafe.Slice((*float64)(unsafe.Pointer(&v.cells[0])), n)
			v.FetchAddScaledRun(1, src, 1)
			for k := 0; k < n; k++ {
				ref.FetchAdd(k+1, loadAt(ref, k))
			}
			same := true
			for i := 0; i <= n; i++ {
				same = same && math.Float64bits(loadAt(v, i)) == math.Float64bits(loadAt(ref, i))
			}
			if long := n >= pairRunMin; same == long {
				t.Errorf("%v run of %d (threshold %d): matches the scalar loop = %v, want %v",
					l, n, pairRunMin, same, !long)
			}
		}
	}
}
