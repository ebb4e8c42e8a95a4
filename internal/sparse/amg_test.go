package sparse

import (
	"math"
	"math/rand"
	"testing"
)

func TestAMGHierarchyCoarsens(t *testing.T) {
	a := gridLaplacian(60, 60, 1e-3)
	p, err := NewAMG(a)
	if err != nil {
		t.Fatal(err)
	}
	if p.Levels() < 3 {
		t.Fatalf("expected a multi-level hierarchy for n=%d, got %d levels", a.N(), p.Levels())
	}
	if p.CoarseN() > 64 {
		t.Fatalf("coarsest level has %d unknowns, want <= 64", p.CoarseN())
	}
	// Levels should shrink monotonically (pairwise aggregation roughly
	// halves each level).
	for ell := 1; ell < len(p.ns); ell++ {
		if p.ns[ell] >= p.ns[ell-1] {
			t.Fatalf("level %d did not coarsen: %v", ell, p.ns)
		}
	}
}

func TestAMGTinyMatrixIsDirectSolve(t *testing.T) {
	a := gridLaplacian(4, 4, 1e-3)
	p, err := NewAMG(a)
	if err != nil {
		t.Fatal(err)
	}
	if p.Levels() != 1 {
		t.Fatalf("n=16 <= amgCoarseSize should factor directly, got %d levels", p.Levels())
	}
	// With no smoothing levels, Apply is an exact solve.
	b := []float64{1, 0, 0, -2, 0, 3, 0, 0, 0, 0, 0, 0, 1, 0, 0, -1}
	z := make([]float64, a.N())
	p.Apply(b, z)
	if r := residual(a, z, b); r > 1e-9 {
		t.Fatalf("direct-solve Apply residual %g", r)
	}
}

func TestAMGPreconditionedCGConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := gridLaplacian(50, 50, 1e-4)
	b := randVec(a.N(), rng)
	p, err := NewAMG(a)
	if err != nil {
		t.Fatal(err)
	}
	x, res, err := PCG(a, b, nil, p, 1e-10, 200)
	if err != nil {
		t.Fatalf("AMG-PCG failed: %v (iters=%d res=%g)", err, res.Iterations, res.Residual)
	}
	if r := residual(a, x, b); r > 1e-6*NormInf(b) {
		t.Fatalf("residual too large: %g", r)
	}
	// The point of AMG is mesh-independent iteration counts; on a 2500-node
	// grid the count should be far below the unpreconditioned hundreds.
	if res.Iterations > 60 {
		t.Fatalf("AMG-PCG took %d iterations, expected mesh-independent convergence", res.Iterations)
	}
}

func TestAMGApplyIsDeterministicAndForkSafe(t *testing.T) {
	a := gridLaplacian(30, 30, 1e-3)
	p, err := NewAMG(a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	r := randVec(a.N(), rng)
	z1 := make([]float64, a.N())
	z2 := make([]float64, a.N())
	p.Apply(r, z1)
	p.Apply(r, z2)
	for i := range z1 {
		if math.Float64bits(z1[i]) != math.Float64bits(z2[i]) {
			t.Fatalf("Apply not deterministic at %d: %v vs %v", i, z1[i], z2[i])
		}
	}
	// A scratch fork must produce bit-identical applications.
	fork := p.forkScratch()
	z3 := make([]float64, a.N())
	fork.Apply(r, z3)
	for i := range z1 {
		if math.Float64bits(z1[i]) != math.Float64bits(z3[i]) {
			t.Fatalf("forked Apply differs at %d: %v vs %v", i, z1[i], z3[i])
		}
	}
}

func TestAMGSymmetryForPCG(t *testing.T) {
	// PCG requires a symmetric preconditioner: check ⟨M⁻¹u, v⟩ = ⟨u, M⁻¹v⟩
	// for random vectors (equal pre/post Jacobi sweeps make the V-cycle
	// symmetric).
	a := gridLaplacian(20, 20, 1e-3)
	p, err := NewAMG(a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	n := a.N()
	for trial := 0; trial < 5; trial++ {
		u, v := randVec(n, rng), randVec(n, rng)
		mu, mv := make([]float64, n), make([]float64, n)
		p.Apply(u, mu)
		p.Apply(v, mv)
		lhs, rhs := Dot(mu, v), Dot(u, mv)
		scale := math.Max(math.Abs(lhs), math.Abs(rhs))
		if math.Abs(lhs-rhs) > 1e-10*math.Max(scale, 1) {
			t.Fatalf("V-cycle not symmetric: ⟨Mu,v⟩=%g ⟨u,Mv⟩=%g", lhs, rhs)
		}
	}
}

func TestAMGRejectsNonPositiveDiagonal(t *testing.T) {
	// 200 unknowns exceed amgCoarseSize, so the diagonal check that fires
	// is the coarsening one, not the coarse factorization's.
	b := NewBuilder(200)
	for i := 0; i < 200; i++ {
		b.Add(i, i, -1)
	}
	if _, err := NewAMG(b.ToCSR()); err == nil {
		t.Fatal("expected error for non-positive diagonal")
	}
}

func TestAMGPrecNameInTrace(t *testing.T) {
	a := gridLaplacian(10, 10, 1e-3)
	p, err := NewAMG(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := precName(p); got != "amg" {
		t.Fatalf("precName(AMGPrec) = %q, want amg", got)
	}
}

// signBlindAggregates is the pairing rule before rail preservation: each
// unvisited node pairs with its largest-|a_ij| unaggregated neighbor,
// whatever the sign. It is the oracle for matrices without positive
// off-diagonals, where the rail-preserving rule must agree with it.
func signBlindAggregates(a *CSR) ([]int32, int) {
	n := a.N()
	agg := make([]int32, n)
	for i := range agg {
		agg[i] = -1
	}
	nc := 0
	for i := 0; i < n; i++ {
		if agg[i] >= 0 {
			continue
		}
		best, bestV := -1, 0.0
		a.Row(i, func(j int, v float64) {
			if j != i && agg[j] < 0 {
				if av := math.Abs(v); av > bestV {
					bestV = av
					best = j
				}
			}
		})
		agg[i] = int32(nc)
		if best >= 0 {
			agg[best] = int32(nc)
		}
		nc++
	}
	return agg, nc
}

func hasPositiveOffDiagonal(a *CSR) bool {
	for i := 0; i < a.N(); i++ {
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			if int(a.col[k]) != i && a.val[k] > 0 {
				return true
			}
		}
	}
	return false
}

// randomLaplacian is a random conductance graph over n nodes, ~deg edges
// per node with conductances over three decades (duplicates accumulate),
// plus a small ground tie per node: an M-matrix with irregular rows.
func randomLaplacian(n, deg int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 1e-3)
		for e := 0; e < deg; e++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			g := math.Pow(10, 3*rng.Float64()-1)
			b.Add(i, i, g)
			b.Add(j, j, g)
			b.AddSym(i, j, -g)
		}
	}
	return b.ToCSR()
}

// TestAMGMatchesSignBlindOnMMatrices pins that rail preservation leaves
// M-matrix aggregation alone: with no positive off-diagonal on any level
// there is nothing to ban, and every level's aggregates equal the
// sign-blind rule's. On meshes, whose levels halve, the stall rule never ends
// coarsening above amgCoarseSize either, so the whole hierarchy is the
// sign-blind one. A random graph's coarse levels shrink slowly (here
// 127 → 94 → 77, then by less than an eighth), so it may stop earlier
// than it used to.
func TestAMGMatchesSignBlindOnMMatrices(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    *CSR
		mesh bool
	}{
		{"grid60x60", gridLaplacian(60, 60, 1e-3), true},
		{"grid7x300", gridLaplacian(7, 300, 1e-5), true},
		{"random", randomLaplacian(3000, 3, 5), false},
	} {
		name := tc.name
		p, err := NewAMG(tc.a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tc.mesh && p.CoarseN() > amgCoarseSize {
			t.Errorf("%s: coarsening stopped at %d unknowns (levels %v), want <= %d", name, p.CoarseN(), p.ns, amgCoarseSize)
		}
		for ell, lvl := range p.levels {
			if hasPositiveOffDiagonal(lvl.a) {
				t.Fatalf("%s level %d: Galerkin operator of an M-matrix has a positive off-diagonal", name, ell)
			}
			want, nc := signBlindAggregates(lvl.a)
			if nc != lvl.nc {
				t.Fatalf("%s level %d: %d aggregates, sign-blind rule gives %d", name, ell, lvl.nc, nc)
			}
			for i := range want {
				if lvl.agg[i] != want[i] {
					t.Fatalf("%s level %d: node %d in aggregate %d, sign-blind rule puts it in %d", name, ell, i, lvl.agg[i], want[i])
				}
			}
		}
	}
}

// stackedRails builds a voltage-stacked conductance matrix: rails unit
// meshes of nx×ny nodes, every fourth node of each intermediate rail
// carrying a converter stamp g·ccᵀ with c = (½, ½, −1) on (rail above,
// rail below, own rail), and the two end rails tied to fixed potentials.
// Converters are 20× stronger than mesh segments, so sign-blind pairing
// merges rails once they have coarsened. It returns each node's rail.
func stackedRails(nx, ny, rails int) (*CSR, []int) {
	per := nx * ny
	b := NewBuilder(per * rails)
	rail := make([]int, per*rails)
	for r := 0; r < rails; r++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				i := r*per + y*nx + x
				rail[i] = r
				for _, j := range []int{i + 1, i + nx} {
					if (j == i+1 && x+1 < nx) || (j == i+nx && y+1 < ny) {
						b.Add(i, i, 1)
						b.Add(j, j, 1)
						b.AddSym(i, j, -1)
					}
				}
				if r == 0 || r == rails-1 {
					b.Add(i, i, 0.1)
				}
				if r > 0 && r < rails-1 && (y*nx+x)%4 == 0 {
					nodes := [3]int{i + per, i - per, i}
					coef := [3]float64{0.5, 0.5, -1}
					for u := range nodes {
						for v := range nodes {
							b.Add(nodes[u], nodes[v], 20*coef[u]*coef[v])
						}
					}
				}
			}
		}
	}
	return b.ToCSR(), rail
}

// TestAMGAggregatesKeepRailsApart checks the rail-preserving rule on every
// level of a stacked-rails hierarchy: no aggregate ever holds nodes of two
// rails.
func TestAMGAggregatesKeepRailsApart(t *testing.T) {
	a, rail := stackedRails(16, 16, 8)
	if !hasPositiveOffDiagonal(a) {
		t.Fatal("stacked rails have no positive off-diagonal")
	}
	p, err := NewAMG(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.levels) < 3 {
		t.Fatalf("want a multi-level hierarchy, got levels %v", p.ns)
	}
	for ell, lvl := range p.levels {
		coarse := make([]int, lvl.nc)
		for g := range coarse {
			coarse[g] = -1
		}
		for i, g := range lvl.agg {
			switch coarse[g] {
			case -1:
				coarse[g] = rail[i]
			case rail[i]:
			default:
				t.Fatalf("level %d: aggregate %d joins rails %d and %d", ell, g, coarse[g], rail[i])
			}
		}
		rail = coarse
	}
}
