package sparse

import (
	"math/rand"
	"testing"
)

// gridWithHubs returns grid3D(nx, ny, nz, 0.1) plus two hub vertices n and
// n+1, tied to every stride-th node of the bottom and the top layer — the
// shape of a PDN whose package nodes connect all pads of a polarity.
func gridWithHubs(nx, ny, nz, stride int) *CSR {
	n := nx * ny * nz
	b := NewBuilder(n + 2)
	grid := grid3D(nx, ny, nz, 0.1)
	for i := 0; i < n; i++ {
		grid.Row(i, func(j int, v float64) { b.Add(i, j, v) })
	}
	layer := nx * ny
	for h, base := range []int{0, (nz - 1) * layer} {
		hub := n + h
		b.Add(hub, hub, 0.1)
		for k := 0; k < layer; k += stride {
			i := base + k
			b.Add(i, i, 1)
			b.Add(hub, hub, 1)
			b.AddSym(i, hub, -1)
		}
	}
	return b.ToCSR()
}

// TestNDNumbersHubsLast pins the hub rule of NestedDissection: the two
// package-style hubs (deg² > n) come last in ascending order, and the
// factor stays within 1.1× of the hub-free grid's fill plus 2n — the at
// most n−1 entries each hub row can add.
func TestNDNumbersHubsLast(t *testing.T) {
	const nx, ny, nz = 16, 16, 4
	a := gridWithHubs(nx, ny, nz, 4)
	n := a.N()
	perm := NestedDissection(a)
	if perm[n-2] != n-2 || perm[n-1] != n-1 {
		t.Fatalf("hubs numbered %d and %d, want %d and %d", perm[n-2], perm[n-1], n-2, n-1)
	}
	f, err := FactorSparse(a, OrderND)
	if err != nil {
		t.Fatal(err)
	}
	g, err := FactorSparse(grid3D(nx, ny, nz, 0.1), OrderND)
	if err != nil {
		t.Fatal(err)
	}
	if limit := 1.1*float64(g.NNZ()) + 2*float64(n); float64(f.NNZ()) > limit {
		t.Errorf("fill with hubs %d exceeds 1.1 × hub-free fill %d + 2n = %.0f", f.NNZ(), g.NNZ(), limit)
	}
	rng := rand.New(rand.NewSource(5))
	b := randVec(n, rng)
	if res := residual(a, f.Solve(b), b); res > 1e-10 {
		t.Errorf("residual %g", res)
	}
}

// TestSupernodeChainsShareRows checks that the columns of a supernode
// chain are views into one row-index array: a dense matrix in natural
// order is a single chain (column j is rows j+1..n−1), so every column
// starts inside column 0's storage.
func TestSupernodeChainsShareRows(t *testing.T) {
	const n = 8
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(i, i, n)
		for j := i + 1; j < n; j++ {
			b.AddSym(i, j, -0.5)
		}
	}
	sym, err := NewSparseCholSymbolic(b.ToCSR(), OrderNatural)
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j < n-1; j++ {
		if &sym.colRow[j][0] != &sym.colRow[0][j] {
			t.Errorf("column %d does not share column 0's row storage", j)
		}
	}
}

// TestEtreeReachAllocatesNothing pins that the row-pattern walk works in
// its caller's scratch.
func TestEtreeReachAllocatesNothing(t *testing.T) {
	a := grid3D(8, 8, 4, 0.1)
	low := a.Permute(NestedDissection(a)).Lower()
	parent := EliminationTree(low)
	n := low.N()
	mark := make([]int, n)
	stack := make([]int, n)
	allocs := testing.AllocsPerRun(5, func() {
		for i := range mark {
			mark[i] = -1
		}
		for i := 0; i < n; i++ {
			etreeReach(low, i, parent, mark, stack)
		}
	})
	if allocs != 0 {
		t.Errorf("etreeReach allocated %.0f times per factor sweep, want 0", allocs)
	}
}
