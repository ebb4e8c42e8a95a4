package pdngrid

import (
	"testing"

	"voltstack/internal/circuit"
	"voltstack/internal/sc"
)

// TestConvergenceStatsPropagated asserts that the sparse-solver convergence
// effort (iterations, final residual) surfaces in Result, so callers can
// budget solver work and detect ill-conditioned meshes.
func TestConvergenceStatsPropagated(t *testing.T) {
	const tol = 1e-10
	cfg := vsCfg(3, 4)
	cfg.Solve = circuit.SolveOptions{Solver: circuit.PCGIC0, Tol: tol}
	r := mustSolve(t, cfg, InterleavedActivities(3, 16, 0.5))
	if r.SolverIterations <= 0 {
		t.Errorf("PCG solve reported %d iterations, want > 0", r.SolverIterations)
	}
	if r.SolverResidual <= 0 || r.SolverResidual > tol {
		t.Errorf("final residual %g, want in (0, %g]", r.SolverResidual, tol)
	}
	if r.OuterIterations != 1 {
		t.Errorf("open-loop solve took %d outer passes, want 1", r.OuterIterations)
	}
	if r.TotalSolverIterations != r.SolverIterations {
		t.Errorf("single pass: total %d != final %d", r.TotalSolverIterations, r.SolverIterations)
	}
}

// TestConvergenceStatsClosedLoop checks the accumulation across closed-loop
// converter-frequency passes: the total must cover at least two passes and
// strictly exceed the final pass alone.
func TestConvergenceStatsClosedLoop(t *testing.T) {
	cfg := vsCfg(3, 4)
	cfg.Control = sc.ClosedLoop{}
	cfg.Solve = circuit.SolveOptions{Solver: circuit.PCGIC0, Tol: 1e-10}
	r := mustSolve(t, cfg, InterleavedActivities(3, 16, 0.5))
	if r.OuterIterations < 2 {
		t.Errorf("closed loop converged in %d outer passes, want >= 2", r.OuterIterations)
	}
	if r.TotalSolverIterations <= r.SolverIterations {
		t.Errorf("total iterations %d should exceed final-pass iterations %d",
			r.TotalSolverIterations, r.SolverIterations)
	}
}

// TestConvergenceStatsDirect pins the contract that direct solves report
// zero iterative effort and zero residual bookkeeping burden.
func TestConvergenceStatsDirect(t *testing.T) {
	cfg := regularCfg(3, SparseTSV())
	cfg.Solve = circuit.SolveOptions{Solver: circuit.Direct}
	r := mustSolve(t, cfg, UniformActivities(3, 16, 1))
	if r.SolverIterations != 0 {
		t.Errorf("direct solve reported %d iterations, want 0", r.SolverIterations)
	}
	if r.OuterIterations != 1 || r.TotalSolverIterations != 0 {
		t.Errorf("direct solve: outer %d total %d, want 1/0", r.OuterIterations, r.TotalSolverIterations)
	}
}

// TestVSAMGIterationsFlatInLayers pins rail-preserving AMG aggregation:
// on voltage-stacked PDNs (Few TSV, 8 converters per core, 32×32 mesh,
// 8k–49k nodes) AMG-PCG must reach the 1e-10 default residual in at most
// 32 iterations at 4, 8 and 24 layers, and the 24-layer count may exceed
// the 4-layer count by at most 30 %. Sign-blind pairing merged rails at
// coarse levels and needed 34, 42 and 91.
func TestVSAMGIterationsFlatInLayers(t *testing.T) {
	iters := map[int]int{}
	for _, layers := range []int{4, 8, 24} {
		cfg := vsCfg(layers, 8)
		cfg.Params.GridNx, cfg.Params.GridNy = 32, 32
		cfg.Solve = circuit.SolveOptions{Solver: circuit.PCGAMG}
		r := mustSolve(t, cfg, InterleavedActivities(layers, 16, 0.5))
		iters[layers] = r.SolverIterations
		if r.SolverIterations > 32 {
			t.Errorf("%d layers: AMG-PCG took %d iterations, want <= 32", layers, r.SolverIterations)
		}
	}
	if 10*iters[24] > 13*iters[4] {
		t.Errorf("24 layers took %d iterations against %d at 4 layers, want <= 1.3x", iters[24], iters[4])
	}
}
