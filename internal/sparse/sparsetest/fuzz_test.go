package sparsetest

import (
	"fmt"
	"math"
	"testing"

	"voltstack/internal/sparse"
)

// FuzzBatchSerialEquivalence fuzzes the batch-equals-serial bit-equality
// contract over the generator space: for any (seed, size, lane count,
// worker count), a skyline SolveBatch and a Jacobi-preconditioned
// PCGBatch must reproduce their serial counterparts exactly. The fuzzer
// hunts for scheduling- or scratch-sharing-dependent divergence that the
// fixed-case property tests might not reach.
func FuzzBatchSerialEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(3), uint8(1))
	f.Add(int64(42), uint8(60), uint8(8), uint8(2))
	f.Add(int64(-7), uint8(1), uint8(1), uint8(8))
	f.Add(int64(9999), uint8(120), uint8(5), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, kRaw, wRaw uint8) {
		n := 1 + int(nRaw)%160
		k := 1 + int(kRaw)%10
		workers := 1 + int(wRaw)%8
		a := RandomSPD(n, 3, seed)
		bs := RandomBatch(n, k, seed+1)

		chol, err := sparse.FactorCholesky(a)
		if err != nil {
			t.Fatalf("seed=%d n=%d: %v", seed, n, err)
		}
		xs := chol.SolveBatchWorkers(bs, workers)
		for i := range bs {
			ref := chol.Solve(bs[i])
			for j := range ref {
				if math.Float64bits(ref[j]) != math.Float64bits(xs[i][j]) {
					t.Fatalf("skyline seed=%d n=%d k=%d workers=%d lane=%d elem=%d: %v vs %v",
						seed, n, k, workers, i, j, ref[j], xs[i][j])
				}
			}
		}

		jac := sparse.NewJacobi(a)
		tol, maxIter := 1e-9, 40*n
		pxs, results, err := sparse.PCGBatch(a, bs, nil, jac, tol, maxIter, nil, workers)
		if err != nil {
			t.Fatalf("pcg batch seed=%d n=%d: %v", seed, n, err)
		}
		for i := range bs {
			ref, refRes, err := sparse.PCG(a, bs[i], nil, jac, tol, maxIter)
			if err != nil {
				t.Fatalf("pcg serial seed=%d n=%d lane=%d: %v", seed, n, i, err)
			}
			if results[i] != refRes {
				t.Fatalf("pcg seed=%d n=%d lane=%d: result %+v vs serial %+v",
					seed, n, i, results[i], refRes)
			}
			for j := range ref {
				if math.Float64bits(ref[j]) != math.Float64bits(pxs[i][j]) {
					t.Fatalf("pcg seed=%d n=%d k=%d workers=%d lane=%d elem=%d: %v vs %v",
						seed, n, k, workers, i, j, ref[j], pxs[i][j])
				}
			}
		}
	})
}

// FuzzNestedDissection fuzzes the hub-last nested-dissection ordering over
// random SPD mesh-plus-hub matrices: the permutation must be a bijection,
// every vertex with deg² > n must be numbered last in ascending index
// order, and the FactorSparse solution must reach a relative residual
// below 1e-10.
func FuzzNestedDissection(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(16), uint8(2), uint8(2), uint8(60))
	f.Add(int64(7), uint8(8), uint8(8), uint8(4), uint8(1), uint8(20))
	f.Add(int64(-3), uint8(3), uint8(1), uint8(1), uint8(3), uint8(2))
	f.Add(int64(42), uint8(20), uint8(5), uint8(3), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nxRaw, nyRaw, nzRaw, hubsRaw, degRaw uint8) {
		nx, ny, nz := 1+int(nxRaw)%24, 1+int(nyRaw)%24, 1+int(nzRaw)%6
		hubs := int(hubsRaw) % 4
		a := GridHubSPD(nx, ny, nz, hubs, 1+int(degRaw), seed)
		n := a.N()

		perm := sparse.NestedDissection(a)
		seen := make([]bool, n)
		for old, p := range perm {
			if p < 0 || p >= n || seen[p] {
				t.Fatalf("seed=%d %dx%dx%d hubs=%d: perm[%d] = %d is not a bijection", seed, nx, ny, nz, hubs, old, p)
			}
			seen[p] = true
		}
		var want []int // vertices with deg² > n, ascending
		for v := 0; v < n; v++ {
			deg := 0
			a.Row(v, func(j int, _ float64) {
				if j != v {
					deg++
				}
			})
			if deg*deg > n {
				want = append(want, v)
			}
		}
		for k, v := range want {
			if p := n - len(want) + k; perm[v] != p {
				t.Fatalf("seed=%d %dx%dx%d hubs=%d: hub %d numbered %d, want %d", seed, nx, ny, nz, hubs, v, perm[v], p)
			}
		}

		fac, err := sparse.FactorSparse(a, sparse.OrderND)
		if err != nil {
			t.Fatalf("seed=%d %dx%dx%d hubs=%d: %v", seed, nx, ny, nz, hubs, err)
		}
		b := RandomRHS(n, seed+1)
		x := fac.Solve(b)
		r := make([]float64, n)
		a.MulVec(x, r)
		var num, den float64
		for i := range r {
			num += (r[i] - b[i]) * (r[i] - b[i])
			den += b[i] * b[i]
		}
		if res := math.Sqrt(num / den); !(res < 1e-10) {
			t.Fatalf("seed=%d %dx%dx%d hubs=%d: relative residual %g", seed, nx, ny, nz, hubs, res)
		}
	})
}

// stackedRailsMaxIter bounds AMG-PCG on StackedRailsSPD systems of up to
// 3072 nodes; 1500 random draws needed at most 37 iterations.
const stackedRailsMaxIter = 100

// FuzzAMGStackedRails fuzzes the AMG preconditioner over voltage-stacked
// rail meshes, whose positive converter couplings make them non-M-matrices:
// the hierarchy must build, the V-cycle M must be symmetric (⟨Mu,v⟩ =
// ⟨u,Mv⟩ to rounding) and positive (⟨Mu,u⟩ > 0), and AMG-PCG must reach a
// 1e-10 relative residual within stackedRailsMaxIter iterations.
func FuzzAMGStackedRails(f *testing.F) {
	f.Add(int64(1), uint8(15), uint8(15), uint8(11), uint8(0))
	f.Add(int64(7), uint8(7), uint8(15), uint8(6), uint8(1))
	f.Add(int64(-3), uint8(0), uint8(0), uint8(11), uint8(3))
	f.Add(int64(42), uint8(31), uint8(4), uint8(1), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, nxRaw, nyRaw, railsRaw, convRaw uint8) {
		nx, ny := 1+int(nxRaw)%16, 1+int(nyRaw)%16
		rails, conv := 1+int(railsRaw)%12, 1+int(convRaw)%8
		a := StackedRailsSPD(nx, ny, rails, conv, seed)
		n := a.N()
		label := fmt.Sprintf("seed=%d %dx%d rails=%d conv=%d", seed, nx, ny, rails, conv)

		p, err := sparse.NewAMG(a)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		u, v := RandomRHS(n, seed+1), RandomRHS(n, seed+2)
		mu, mv := make([]float64, n), make([]float64, n)
		p.Apply(u, mu)
		p.Apply(v, mv)
		lhs, rhs := sparse.Dot(mu, v), sparse.Dot(u, mv)
		scale := sparse.Norm2(mu)*sparse.Norm2(v) + sparse.Norm2(u)*sparse.Norm2(mv)
		if !(math.Abs(lhs-rhs) <= 1e-12*scale) {
			t.Fatalf("%s: V-cycle not symmetric: ⟨Mu,v⟩=%g ⟨u,Mv⟩=%g", label, lhs, rhs)
		}
		if uMu := sparse.Dot(mu, u); !(uMu > 0) {
			t.Fatalf("%s: V-cycle not positive: ⟨Mu,u⟩=%g", label, uMu)
		}
		if _, res, err := sparse.PCG(a, u, nil, p, 1e-10, stackedRailsMaxIter); err != nil {
			t.Fatalf("%s: AMG-PCG: %v (iterations %d, residual %g)", label, err, res.Iterations, res.Residual)
		}
	})
}
