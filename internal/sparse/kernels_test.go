package sparse

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

func bitsEqual(t *testing.T, name string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: element %d differs bitwise: %x vs %x (%g vs %g)",
				name, i, math.Float64bits(a[i]), math.Float64bits(b[i]), a[i], b[i])
		}
	}
}

// Above vecBlock elements the reductions' bits are defined by their fixed
// blocked order: sum each block in index order, then add the block
// partials in block order. The references below spell that order out; a
// straight loop over the whole vector rounds differently on this data, so
// replacing the blocked reduction with one fails here.
func TestBlockedReductionsFixedBlockOrder(t *testing.T) {
	if vecBlock != 65536 {
		t.Fatalf("vecBlock = %d: the block size fixes the bits of every solve above 65536 nodes", vecBlock)
	}
	n := 3*vecBlock + 12345
	rng := rand.New(rand.NewSource(5))
	x, y := randVec(n, rng), randVec(n, rng)
	p, ap := randVec(n, rng), randVec(n, rng)
	const alpha = 0.37
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

	var dot, nrm float64
	for lo := 0; lo < n; lo += vecBlock {
		hi := min(lo+vecBlock, n)
		var d, s float64
		for i := lo; i < hi; i++ {
			d += x[i] * y[i]
		}
		for i := lo; i < hi; i++ {
			s += x[i] * x[i]
		}
		dot += d
		nrm += s
	}
	if got := blockedDot(x, y); !same(got, dot) {
		t.Errorf("blockedDot = %x, blocked reference %x", math.Float64bits(got), math.Float64bits(dot))
	}
	if got := blockedNormSq(x); !same(got, nrm) {
		t.Errorf("blockedNormSq = %x, blocked reference %x", math.Float64bits(got), math.Float64bits(nrm))
	}
	if same(dot, Dot(x, y)) {
		t.Fatal("straight-loop Dot matches the blocked reference; the data cannot tell the orders apart")
	}

	wantX := append([]float64(nil), x...)
	wantR := append([]float64(nil), y...)
	var rr float64
	for lo := 0; lo < n; lo += vecBlock {
		var s float64
		for i := lo; i < min(lo+vecBlock, n); i++ {
			wantX[i] += alpha * p[i]
			ri := wantR[i] - alpha*ap[i]
			wantR[i] = ri
			s += ri * ri
		}
		rr += s
	}
	gotX := append([]float64(nil), x...)
	gotR := append([]float64(nil), y...)
	if got := fusedUpdateNormSq(gotX, p, gotR, ap, alpha); !same(got, rr) {
		t.Errorf("fusedUpdateNormSq = %x, blocked reference %x", math.Float64bits(got), math.Float64bits(rr))
	}
	bitsEqual(t, "fused x", wantX, gotX)
	bitsEqual(t, "fused r", wantR, gotR)
	var straight float64
	for _, v := range wantR {
		straight += v * v
	}
	if same(straight, rr) {
		t.Fatal("straight-loop ‖r‖² matches the blocked reference; the data cannot tell the orders apart")
	}
}

// Single-block vectors must reproduce the plain serial loop exactly, so
// all historical small-system results are unchanged by the blocked path.
func TestBlockedReductionSingleBlockMatchesSerialLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := randVec(1000, rng), randVec(1000, rng)
	if got, want := blockedDot(x, y), Dot(x, y); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("single-block blockedDot differs from Dot: %g vs %g", got, want)
	}
}

func TestPCGWorkspaceCacheLineAligned(t *testing.T) {
	for _, n := range []int{1, 7, 64, 1000, 65537} {
		w := NewPCGWorkspace(n)
		for name, v := range map[string][]float64{"r": w.r, "z": w.z, "p": w.p, "ap": w.ap} {
			if len(v) != n {
				t.Fatalf("n=%d: %s has length %d", n, name, len(v))
			}
			if addr := uintptr(unsafe.Pointer(&v[0])); addr%64 != 0 {
				t.Errorf("n=%d: %s not 64-byte aligned (addr %% 64 = %d)", n, name, addr%64)
			}
		}
	}
}
