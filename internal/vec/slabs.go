package vec

import "sync"

// Slabs recycles float64 slabs between builders whose scratch dies
// before they return, so back-to-back builds of one size reuse one slab
// instead of each allocating its own. The zero value is ready to use and
// is safe for concurrent use; the sync.Pool underneath may drop a
// returned slab at any GC.
type Slabs struct{ pool sync.Pool }

// Get returns a zeroed slab of length n: a returned one when its
// capacity suffices, otherwise a new one.
func (s *Slabs) Get(n int) *[]float64 {
	p, _ := s.pool.Get().(*[]float64)
	if p == nil || cap(*p) < n {
		b := make([]float64, n)
		return &b
	}
	*p = (*p)[:n]
	clear(*p)
	return p
}

// Put hands p back for a later Get. Nothing may read or write the slab,
// or a slice of it, afterwards.
func (s *Slabs) Put(p *[]float64) { s.pool.Put(p) }
