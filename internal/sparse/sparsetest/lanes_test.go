// Lane-count invariance: a batched PCG solve runs its lanes concurrently
// on forked preconditioners, and every lane must still be bit-identical to
// the plain serial solve of its right-hand side.
package sparsetest

import (
	"fmt"
	"testing"

	"voltstack/internal/sparse"
)

// precFor builds a fresh preconditioner of the given kind, so every serial
// reference starts from its own factorization or hierarchy.
func precFor(t *testing.T, kind string, a *sparse.CSR) sparse.Preconditioner {
	t.Helper()
	switch kind {
	case "ic0":
		p, err := sparse.NewIC0(a)
		if err != nil {
			t.Fatal(err)
		}
		return p
	case "amg":
		p, err := sparse.NewAMG(a)
		if err != nil {
			t.Fatal(err)
		}
		return p
	case "jacobi":
		return sparse.NewJacobi(a)
	default:
		t.Fatalf("unknown prec kind %q", kind)
		return nil
	}
}

// TestBatchLanesBitEquality runs PCGBatch over 4 lanes with a worker
// budget of 4 (every lane concurrent) and 2 (two lanes at a time), and
// every lane must match the plain serial solve bitwise. Runs under -race
// in CI, so it also proves the forked IC(0) and AMG preconditioners are
// data-race free while lanes run concurrently.
func TestBatchLanesBitEquality(t *testing.T) {
	const k = 4
	for label, a := range matrices() {
		n := a.N()
		bs := RandomBatch(n, k, 2024)
		tol, maxIter := 1e-10, 20*n
		for _, kind := range []string{"ic0", "amg"} {
			prec := precFor(t, kind, a)
			for _, budget := range []int{4, 2} {
				name := fmt.Sprintf("%s %s budget=%d", label, kind, budget)
				xs, results, err := sparse.PCGBatch(a, bs, nil, prec, tol, maxIter, nil, budget)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for i := range bs {
					ref, refRes, err := sparse.PCG(a, bs[i], nil, precFor(t, kind, a), tol, maxIter)
					if err != nil {
						t.Fatalf("%s serial lane %d: %v", name, i, err)
					}
					mustBitEqual(t, fmt.Sprintf("%s lane %d", name, i), ref, xs[i])
					if results[i] != refRes {
						t.Fatalf("%s lane %d: %+v vs serial %+v", name, i, results[i], refRes)
					}
				}
			}
		}
	}
}
