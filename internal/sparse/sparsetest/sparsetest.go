// Package sparsetest provides deterministic generators of SPD test
// systems — random diagonally-dominant conductance matrices, PDN-shaped
// grid Laplacians in two and three dimensions and voltage-stacked rail
// meshes joined by converter stamps — plus random right-hand-side
// batches. The solver equivalence properties (batch-vs-serial bit-equality,
// AMG-vs-IC(0) residual equivalence) and the node-count scaling benchmarks
// all draw their inputs from here, so every layer of the stack is tested
// against the same matrix population.
package sparsetest

import (
	"math"
	"math/rand"

	"voltstack/internal/sparse"
)

// NewRand returns a deterministic RNG for the given seed. All generators
// in this package derive their randomness this way, so any (generator,
// size, seed) triple identifies one reproducible system.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// RandomSPD builds an n-node random conductance matrix: a graph Laplacian
// over ~degree random edges per node with conductances spanning three
// decades, plus a small ground tie on every diagonal that makes it
// strictly SPD. Duplicate edges accumulate, exactly like element stamping.
func RandomSPD(n, degree int, seed int64) *sparse.CSR {
	rng := NewRand(seed)
	b := sparse.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 1e-3*(1+rng.Float64()))
		for e := 0; e < degree; e++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			// Conductance in [1e-1, ~1e2): wide enough to exercise the
			// preconditioners' scaling paths.
			g := 0.1 + 100*rng.Float64()
			b.Add(i, i, g)
			b.Add(j, j, g)
			b.AddSym(i, j, -g)
		}
	}
	return b.ToCSR()
}

// Grid2D builds the conductance matrix of an nx x ny resistor mesh with
// unit segment conductances and a ground tie on every diagonal — the
// canonical single-layer PDN shape.
func Grid2D(nx, ny int, ground float64) *sparse.CSR {
	n := nx * ny
	b := sparse.NewBuilder(n)
	idx := func(x, y int) int { return y*nx + x }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := idx(x, y)
			b.Add(i, i, ground)
			if x+1 < nx {
				stampUnit(b, i, idx(x+1, y))
			}
			if y+1 < ny {
				stampUnit(b, i, idx(x, y+1))
			}
		}
	}
	return b.ToCSR()
}

// Grid3D builds the conductance matrix of an nx x ny x nz resistor mesh —
// the many-layer PDN shape (lateral mesh plus TSV-like vertical links).
func Grid3D(nx, ny, nz int, ground float64) *sparse.CSR {
	n := nx * ny * nz
	b := sparse.NewBuilder(n)
	idx := func(x, y, z int) int { return (z*ny+y)*nx + x }
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				i := idx(x, y, z)
				b.Add(i, i, ground)
				if x+1 < nx {
					stampUnit(b, i, idx(x+1, y, z))
				}
				if y+1 < ny {
					stampUnit(b, i, idx(x, y+1, z))
				}
				if z+1 < nz {
					stampUnit(b, i, idx(x, y, z+1))
				}
			}
		}
	}
	return b.ToCSR()
}

// GridHubSPD builds an nx x ny x nz mesh like Grid3D, with random
// segment conductances, plus hubs extra vertices n..n+hubs−1 — the
// package nodes of a PDN, which tie many pads together. Each hub connects
// to hubDeg distinct random mesh nodes. A small ground tie on every
// diagonal makes the matrix strictly SPD.
func GridHubSPD(nx, ny, nz, hubs, hubDeg int, seed int64) *sparse.CSR {
	rng := NewRand(seed)
	n := nx * ny * nz
	b := sparse.NewBuilder(n + hubs)
	idx := func(x, y, z int) int { return (z*ny+y)*nx + x }
	edge := func(i, j int) {
		g := 0.1 + 10*rng.Float64()
		b.Add(i, i, g)
		b.Add(j, j, g)
		b.AddSym(i, j, -g)
	}
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				i := idx(x, y, z)
				b.Add(i, i, 1e-3)
				if x+1 < nx {
					edge(i, idx(x+1, y, z))
				}
				if y+1 < ny {
					edge(i, idx(x, y+1, z))
				}
				if z+1 < nz {
					edge(i, idx(x, y, z+1))
				}
			}
		}
	}
	if hubDeg > n {
		hubDeg = n
	}
	for h := 0; h < hubs; h++ {
		hub := n + h
		b.Add(hub, hub, 1e-3)
		for _, i := range rng.Perm(n)[:hubDeg] {
			edge(i, hub)
		}
	}
	return b.ToCSR()
}

// StackedRailsSPD builds the DC conductance matrix shape of a
// voltage-stacked PDN: rails meshes of nx×ny nodes (rail r's node (x, y)
// is r·nx·ny + y·nx + x) with random segment conductances, joined by
// converter stamps. Each intermediate rail r carries conv converters at
// random mesh positions; one stamps g·ccᵀ with c = (½, ½, −1) on (rail
// r+1, rail r−1, rail r), a positive +g/4 coupling between the outer
// rails closing a triangle with the mid node, plus a parallel conductance
// below g/8 between the outer rails. Converter conductances g lie in
// [1, 51), mesh segments in [0.1, 10.1), so a converter coupling is often
// a node's strongest. Rail ties at both ends — every node of rails 0 and
// rails−1 with probability ¼, and node 0 of each always — pin the
// stack. The matrix is SPD: a null vector would have to be constant on
// each rail, linear in r (each converter fixes its mid rail at the mean of
// its outer rails) and zero on both tied end rails.
func StackedRailsSPD(nx, ny, rails, conv int, seed int64) *sparse.CSR {
	rng := NewRand(seed)
	per := nx * ny
	b := sparse.NewBuilder(per * rails)
	edge := func(i, j int, g float64) {
		b.Add(i, i, g)
		b.Add(j, j, g)
		b.AddSym(i, j, -g)
	}
	for r := 0; r < rails; r++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				i := r*per + y*nx + x
				if x+1 < nx {
					edge(i, i+1, 0.1+10*rng.Float64())
				}
				if y+1 < ny {
					edge(i, i+nx, 0.1+10*rng.Float64())
				}
				if (r == 0 || r == rails-1) && (x+y == 0 || rng.Intn(4) == 0) {
					b.Add(i, i, 1+10*rng.Float64())
				}
			}
		}
	}
	if conv < 1 {
		conv = 1
	}
	coef := [3]float64{0.5, 0.5, -1}
	for r := 1; r < rails-1; r++ {
		for c := 0; c < conv; c++ {
			mid := r*per + rng.Intn(per)
			nodes := [3]int{mid + per, mid - per, mid}
			g := 1 + 50*rng.Float64()
			for u := range nodes {
				for v := range nodes {
					b.Add(nodes[u], nodes[v], g*coef[u]*coef[v])
				}
			}
			edge(mid+per, mid-per, g*rng.Float64()/8)
		}
	}
	return b.ToCSR()
}

func stampUnit(b *sparse.Builder, i, j int) {
	b.Add(i, i, 1)
	b.Add(j, j, 1)
	b.AddSym(i, j, -1)
}

// DiagSPD builds an n-node diagonal SPD matrix whose eigenvalues are
// log-spaced in [lo, hi]. The spectrum is known in closed form —
// cond(A) = hi/lo exactly, extreme eigenvalues are lo and hi — so the
// solver-health condition estimates can be tested against ground truth
// rather than against another estimate.
func DiagSPD(n int, lo, hi float64) *sparse.CSR {
	b := sparse.NewBuilder(n)
	for i := 0; i < n; i++ {
		f := 0.0
		if n > 1 {
			f = float64(i) / float64(n-1)
		}
		b.Add(i, i, lo*math.Pow(hi/lo, f))
	}
	return b.ToCSR()
}

// RandomRHS returns a deterministic standard-normal right-hand side.
func RandomRHS(n int, seed int64) []float64 {
	rng := NewRand(seed)
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// RandomBatch returns k deterministic right-hand sides. Lane i equals
// RandomRHS(n, seed+i), so a batch and its serial re-derivation see the
// same vectors.
func RandomBatch(n, k int, seed int64) [][]float64 {
	bs := make([][]float64, k)
	for i := range bs {
		bs[i] = RandomRHS(n, seed+int64(i))
	}
	return bs
}
