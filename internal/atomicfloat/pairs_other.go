//go:build !amd64 || race

package atomicfloat

// Off amd64 there is no pair kernel, and under the race detector the
// scalar loop stands in for it, since the detector cannot see writes made
// in assembly. Every run takes FetchAddScaledRun's scalar loop.
const (
	cx16       = false
	pairRunMin = 0
)

func addPairRun([]Float64, []float64, float64) {
	panic("atomicfloat: no pair kernel in this build")
}
