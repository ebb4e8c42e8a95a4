// Deterministic blocked reductions. The PCG reductions (dot products,
// norms, the fused iterate/residual/norm update) are computed in a fixed
// blocked order: the vector is cut into vecBlock-sized blocks, each block
// is summed in index order, and the per-block partials are then added in
// block order. The grouping is part of the numerical contract — it fixes
// the bits of every solve above vecBlock unknowns — so it must not be
// "simplified" into one straight loop, which rounds differently.
package sparse

import "voltstack/internal/telemetry"

// vecBlock is the fixed reduction block size (in float64 elements). It is
// deliberately larger than every test-scale system (so single-block
// reductions reproduce the historical straight-loop arithmetic exactly)
// while still giving a 1M-node vector 16 partials.
const vecBlock = 65536

// Per-kernel invocation counters: one atomic when telemetry is enabled,
// one load when not.
var (
	mKernelSpMV     = telemetry.NewCounter("sparse_kernel_spmv_total")
	mKernelTrisolve = telemetry.NewCounter("sparse_kernel_trisolve_total")
	mKernelSmooth   = telemetry.NewCounter("sparse_kernel_smoother_total")
)

// blockedReduce adds blockFn's partials over the fixed-size blocks of
// [0, n) in block order. A single block's total is its partial bit for
// bit: a partial that starts at +0 is never -0, and +0 + p == p.
func blockedReduce(n int, blockFn func(lo, hi int) float64) float64 {
	var s float64
	for lo := 0; lo < n; lo += vecBlock {
		s += blockFn(lo, min(lo+vecBlock, n))
	}
	return s
}

// blockedDot is Dot with the fixed-block reduction order. For n ≤ vecBlock
// it degenerates to the plain serial loop (bit-identical to Dot).
func blockedDot(x, y []float64) float64 {
	return blockedReduce(len(x), func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += x[i] * y[i]
		}
		return s
	})
}

// blockedNormSq returns ‖x‖² in the fixed-block reduction order.
func blockedNormSq(x []float64) float64 {
	return blockedReduce(len(x), func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += x[i] * x[i]
		}
		return s
	})
}

// fusedUpdateNormSq performs the PCG iterate/residual update
//
//	x += alpha·p;  r -= alpha·ap
//
// and returns the new ‖r‖² reduced in the fixed-block order. Per-element
// arithmetic matches the plain fused loop exactly; only the partial-sum
// grouping is blocked.
func fusedUpdateNormSq(x, p, r, ap []float64, alpha float64) float64 {
	return blockedReduce(len(x), func(lo, hi int) float64 {
		var rr float64
		for i := lo; i < hi; i++ {
			x[i] += alpha * p[i]
			ri := r[i] - alpha*ap[i]
			r[i] = ri
			rr += ri * ri
		}
		return rr
	})
}
