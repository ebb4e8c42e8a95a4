package sparse

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned when a Cholesky factorization
// encounters a non-positive pivot.
var ErrNotPositiveDefinite = errors.New("sparse: matrix is not positive definite")

// SkylineChol is a Cholesky factorization A = L*Lᵀ stored in skyline
// (envelope) form, with an internal reverse Cuthill-McKee permutation
// applied to keep the envelope small. Construct with FactorCholesky.
type SkylineChol struct {
	n      int
	perm   []int // old -> new
	inv    []int // new -> old
	first  []int // first stored column per row (permuted indexing)
	rowPtr []int // offset into val of column first[i] of row i
	val    []float64
}

// SkylineSymbolic is the structure-only half of the skyline factorization:
// the fill-reducing permutation, the envelope layout, and a scatter map
// from the matrix's CSR entries into envelope slots. It is computed once
// per sparsity structure; Refactor then produces a numeric factorization
// for any matrix sharing that structure without re-running RCM or the
// envelope analysis.
type SkylineSymbolic struct {
	n       int
	perm    []int
	inv     []int
	first   []int
	rowPtr  []int
	scatter []int32 // CSR entry k -> envelope index, or -1 (upper triangle)
}

// FactorCholesky computes the skyline Cholesky factorization of the
// symmetric positive definite matrix a. The input is not modified.
func FactorCholesky(a *CSR) (*SkylineChol, error) {
	return NewSkylineSymbolic(a).Refactor(a, nil)
}

// FactorCholeskyNatural factors without reordering (useful for testing and
// for matrices that are already well ordered).
func FactorCholeskyNatural(a *CSR) (*SkylineChol, error) {
	n := a.N()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	return newSkylineSymbolicPerm(a, perm).Refactor(a, nil)
}

// NewSkylineSymbolic performs the structural phase of FactorCholesky:
// RCM ordering plus envelope construction.
func NewSkylineSymbolic(a *CSR) *SkylineSymbolic {
	return newSkylineSymbolicPerm(a, RCM(a))
}

func newSkylineSymbolicPerm(a *CSR, perm []int) *SkylineSymbolic {
	symbolicBuilt()
	n := a.N()
	s := &SkylineSymbolic{
		n:     n,
		perm:  append([]int(nil), perm...),
		inv:   InvertPerm(perm),
		first: make([]int, n),
	}
	// Envelope of the lower triangle of the permuted matrix, derived
	// directly from a's entries (no permuted copy is materialized).
	for i := range s.first {
		s.first[i] = i
	}
	for i := 0; i < n; i++ {
		pi := perm[i]
		a.Row(i, func(j int, _ float64) {
			if pj := perm[j]; pj < s.first[pi] {
				s.first[pi] = pj
			}
		})
	}
	s.rowPtr = make([]int, n+1)
	for i := 0; i < n; i++ {
		s.rowPtr[i+1] = s.rowPtr[i] + (i - s.first[i] + 1)
	}
	// Scatter map: CSR entry -> envelope slot of the permuted lower
	// triangle (entries are unique, so scattering is pure assignment).
	s.scatter = make([]int32, a.NNZ())
	k := 0
	for i := 0; i < n; i++ {
		pi := perm[i]
		a.Row(i, func(j int, _ float64) {
			pj := perm[j]
			if pj <= pi {
				s.scatter[k] = int32(s.rowPtr[pi] - s.first[pi] + pj)
			} else {
				s.scatter[k] = -1
			}
			k++
		})
	}
	return s
}

// N returns the system dimension.
func (s *SkylineSymbolic) N() int { return s.n }

// Refactor computes the numeric factorization of a, which must share the
// sparsity structure the symbolic phase was built from. When f is non-nil
// its envelope storage is reused (no allocation); otherwise a new
// SkylineChol is returned. The result is bit-identical to FactorCholesky
// on the same values.
func (s *SkylineSymbolic) Refactor(a *CSR, f *SkylineChol) (*SkylineChol, error) {
	t0 := refactorStart()
	defer refactorEnd(t0)
	if a.NNZ() != len(s.scatter) || a.N() != s.n {
		return nil, fmt.Errorf("sparse: Refactor: matrix structure does not match symbolic phase")
	}
	if f == nil {
		f = &SkylineChol{
			n:      s.n,
			perm:   s.perm,
			inv:    s.inv,
			first:  s.first,
			rowPtr: s.rowPtr,
			val:    make([]float64, s.rowPtr[s.n]),
		}
	} else {
		for i := range f.val {
			f.val[i] = 0
		}
	}
	val := f.val
	for k, v := range a.val {
		if e := s.scatter[k]; e >= 0 {
			val[e] = v
		}
	}
	if err := skylineFactorize(s.n, s.first, s.rowPtr, val); err != nil {
		return nil, err
	}
	return f, nil
}

// skylineFactorize runs the in-place envelope Cholesky on a scattered
// lower triangle.
func skylineFactorize(n int, first, rowPtr []int, val []float64) error {
	for i := 0; i < n; i++ {
		baseI := rowPtr[i] - first[i]
		for j := first[i]; j < i; j++ {
			baseJ := rowPtr[j] - first[j]
			kLo := first[i]
			if first[j] > kLo {
				kLo = first[j]
			}
			s := val[baseI+j]
			for k := kLo; k < j; k++ {
				s -= val[baseI+k] * val[baseJ+k]
			}
			val[baseI+j] = s / val[baseJ+j]
		}
		d := val[baseI+i]
		for k := first[i]; k < i; k++ {
			d -= val[baseI+k] * val[baseI+k]
		}
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("sparse: skyline Cholesky: %w at row %d of %d (diagonal after elimination %g)", ErrNotPositiveDefinite, i, n, d)
		}
		val[baseI+i] = math.Sqrt(d)
	}
	return nil
}

// N returns the system dimension.
func (f *SkylineChol) N() int { return f.n }

// Solve returns x with A*x = b. b is not modified.
func (f *SkylineChol) Solve(b []float64) []float64 {
	x := make([]float64, f.n)
	f.SolveScratch(x, b, make([]float64, f.n))
	return x
}

// SolveTo is like Solve but writes into dst (len n) and reuses it.
func (f *SkylineChol) SolveTo(dst, b []float64) {
	f.SolveScratch(dst, b, make([]float64, f.n))
}

// SolveScratch writes the solution of A*x = b into dst, using work (len n)
// for the permuted right-hand side, and allocates nothing. dst may alias
// b; work must alias neither.
func (f *SkylineChol) SolveScratch(dst, b, work []float64) {
	if len(b) != f.n || len(dst) != f.n || len(work) != f.n {
		panic("sparse: Solve dimension mismatch")
	}
	// Permute RHS into factor ordering.
	y := work
	for i, p := range f.perm {
		y[p] = b[i]
	}

	// Forward substitution: L*y' = y.
	for i := 0; i < f.n; i++ {
		base := f.rowPtr[i] - f.first[i]
		s := y[i]
		for k := f.first[i]; k < i; k++ {
			s -= f.val[base+k] * y[k]
		}
		y[i] = s / f.val[base+i]
	}
	// Backward substitution: Lᵀ*x' = y' (column sweep over rows).
	for i := f.n - 1; i >= 0; i-- {
		base := f.rowPtr[i] - f.first[i]
		y[i] /= f.val[base+i]
		xi := y[i]
		for k := f.first[i]; k < i; k++ {
			y[k] -= f.val[base+k] * xi
		}
	}

	// Permute solution back to original ordering.
	for nw, old := range f.inv {
		dst[old] = y[nw]
	}
}
