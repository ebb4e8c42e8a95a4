package pdngrid

import (
	"math"
	"testing"

	"voltstack/internal/circuit"
	"voltstack/internal/sc"
)

// bitsEq compares floats bitwise, so even a sign-of-zero or last-ulp drift
// between the fresh and prepared paths fails loudly.
func bitsEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func sliceBitsEq(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bitsEq(a[i], b[i]) {
			return false
		}
	}
	return true
}

// sameResult asserts two Results are bit-identical in every field.
func sameResult(t *testing.T, label string, fresh, prep *Result) {
	t.Helper()
	fail := func(field string) {
		t.Fatalf("%s: field %s differs between fresh and prepared", label, field)
	}
	switch {
	case !bitsEq(fresh.MaxIRDropFrac, prep.MaxIRDropFrac):
		fail("MaxIRDropFrac")
	case !bitsEq(fresh.MaxRiseFrac, prep.MaxRiseFrac):
		fail("MaxRiseFrac")
	case fresh.WorstLayer != prep.WorstLayer:
		fail("WorstLayer")
	case !sliceBitsEq(fresh.PadCurrents, prep.PadCurrents):
		fail("PadCurrents")
	case !sliceBitsEq(fresh.TSVCurrents, prep.TSVCurrents):
		fail("TSVCurrents")
	case !bitsEq(fresh.InputPower, prep.InputPower):
		fail("InputPower")
	case !bitsEq(fresh.LoadPower, prep.LoadPower):
		fail("LoadPower")
	case !bitsEq(fresh.ConverterLoss, prep.ConverterLoss):
		fail("ConverterLoss")
	case !bitsEq(fresh.WireLoss, prep.WireLoss):
		fail("WireLoss")
	case !bitsEq(fresh.Efficiency, prep.Efficiency):
		fail("Efficiency")
	case !sliceBitsEq(fresh.ConverterCurrents, prep.ConverterCurrents):
		fail("ConverterCurrents")
	case !bitsEq(fresh.MaxConverterCurrent, prep.MaxConverterCurrent):
		fail("MaxConverterCurrent")
	case fresh.OverLimit != prep.OverLimit:
		fail("OverLimit")
	case fresh.SolverIterations != prep.SolverIterations:
		t.Fatalf("%s: SolverIterations %d vs %d", label, fresh.SolverIterations, prep.SolverIterations)
	case !bitsEq(fresh.SolverResidual, prep.SolverResidual):
		fail("SolverResidual")
	case fresh.OuterIterations != prep.OuterIterations:
		t.Fatalf("%s: OuterIterations %d vs %d", label, fresh.OuterIterations, prep.OuterIterations)
	case fresh.TotalSolverIterations != prep.TotalSolverIterations:
		t.Fatalf("%s: TotalSolverIterations %d vs %d", label, fresh.TotalSolverIterations, prep.TotalSolverIterations)
	}
	if len(fresh.TSVLayers) != len(prep.TSVLayers) {
		fail("TSVLayers")
	}
	for i := range fresh.TSVLayers {
		if fresh.TSVLayers[i] != prep.TSVLayers[i] {
			fail("TSVLayers")
		}
	}
	if len(fresh.CellVoltages) != len(prep.CellVoltages) {
		fail("CellVoltages")
	}
	for l := range fresh.CellVoltages {
		if !sliceBitsEq(fresh.CellVoltages[l], prep.CellVoltages[l]) {
			fail("CellVoltages")
		}
	}
}

// solvePair solves the same scenario twice — through the prepared engine
// (default path) and through the historical rebuild-everything path — on two
// independent PDNs, and returns (fresh, prepared).
func solvePair(t *testing.T, cfg Config, acts [][]float64) (*Result, *Result) {
	t.Helper()
	freshCfg := cfg
	freshCfg.ForceFreshSolve = true
	fresh := mustSolve(t, freshCfg, acts)
	prep := mustSolve(t, cfg, acts)
	return fresh, prep
}

var preparedKinds = []circuit.SolverKind{
	circuit.Auto, circuit.Direct, circuit.DirectSparseND, circuit.PCGIC0, circuit.PCGJacobi,
	circuit.PCGAMG,
}

// TestPreparedMatchesFreshOpenLoop is the PDN-level equivalence contract:
// for both architectures and every solver kind, the prepared engine's
// open-loop result is bit-identical to the fresh path's.
func TestPreparedMatchesFreshOpenLoop(t *testing.T) {
	cfgs := map[string]Config{
		"regular": regularCfg(3, SparseTSV()),
		"stacked": vsCfg(3, 4),
	}
	for name, cfg := range cfgs {
		acts := InterleavedActivities(3, 16, 0.5)
		for _, kind := range preparedKinds {
			cfg.Solve = circuit.SolveOptions{Solver: kind}
			fresh, prep := solvePair(t, cfg, acts)
			sameResult(t, name, fresh, prep)
		}
	}
}

// TestPreparedMatchesFreshClosedLoop covers the outer-iteration loop: with
// warm starts disabled the prepared path must replay the fresh path's
// per-pass arithmetic exactly, including the converter-frequency updates.
func TestPreparedMatchesFreshClosedLoop(t *testing.T) {
	for _, kind := range []circuit.SolverKind{circuit.Direct, circuit.PCGIC0} {
		cfg := vsCfg(3, 4)
		cfg.Control = sc.ClosedLoop{}
		cfg.NoWarmStart = true
		cfg.Solve = circuit.SolveOptions{Solver: kind, Tol: 1e-10}
		acts := InterleavedActivities(3, 16, 0.5)
		fresh, prep := solvePair(t, cfg, acts)
		if prep.OuterIterations < 2 {
			t.Fatalf("kind %d: closed loop converged in %d outer passes, want >= 2", kind, prep.OuterIterations)
		}
		sameResult(t, "closed-loop", fresh, prep)
	}
}

// TestPreparedWarmStartClosedLoop checks the default closed-loop path (warm
// starts on): the converged answer must agree with the fresh path to the
// outer loop's own convergence tolerance (1e-4 on converter currents — warm
// starts change the iterate trajectory, so the loop may settle a few ulps of
// that band apart), and the warm-started outer passes must not need more
// total linear-solver iterations than the cold-start baseline.
func TestPreparedWarmStartClosedLoop(t *testing.T) {
	cfg := vsCfg(3, 4)
	cfg.Control = sc.ClosedLoop{}
	cfg.Solve = circuit.SolveOptions{Solver: circuit.PCGIC0, Tol: 1e-10}
	acts := InterleavedActivities(3, 16, 0.5)
	fresh, warm := solvePair(t, cfg, acts)
	if math.Abs(fresh.MaxIRDropFrac-warm.MaxIRDropFrac) > 1e-5 {
		t.Errorf("warm-start noise drifted: %g vs %g", warm.MaxIRDropFrac, fresh.MaxIRDropFrac)
	}
	if math.Abs(fresh.Efficiency-warm.Efficiency) > 1e-5 {
		t.Errorf("warm-start efficiency drifted: %g vs %g", warm.Efficiency, fresh.Efficiency)
	}
	if warm.TotalSolverIterations > fresh.TotalSolverIterations {
		t.Errorf("warm starts cost iterations: %d vs cold %d",
			warm.TotalSolverIterations, fresh.TotalSolverIterations)
	}
}

// TestPreparedEngineReuseAcrossActivityPatterns drives one PDN through a
// sequence of different activity patterns. Every solve after the first hits
// the cached engine, whose results must not depend on what was solved
// before: each must be bit-identical to a solve on a pristine PDN.
func TestPreparedEngineReuseAcrossActivityPatterns(t *testing.T) {
	cfg := vsCfg(3, 4)
	cfg.Solve = circuit.SolveOptions{Solver: circuit.PCGIC0, Tol: 1e-10}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	patterns := [][][]float64{
		InterleavedActivities(3, 16, 0.5),
		UniformActivities(3, 16, 1),
		InterleavedActivities(3, 16, 0.9),
		InterleavedActivities(3, 16, 0.5), // repeat of the first
	}
	for i, acts := range patterns {
		got, err := p.Solve(acts)
		if err != nil {
			t.Fatalf("pattern %d: %v", i, err)
		}
		want := mustSolve(t, cfg, acts) // pristine PDN, cold engine
		sameResult(t, "reuse", want, got)
	}
}

// TestPreparedRegularReuse covers the regular (no-converter) architecture's
// engine reuse, where only load values change between solves.
func TestPreparedRegularReuse(t *testing.T) {
	cfg := regularCfg(3, SparseTSV())
	cfg.Solve = circuit.SolveOptions{Solver: circuit.Direct}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, act := range []float64{1, 0.25, 1} {
		acts := UniformActivities(3, 16, act)
		got, err := p.Solve(acts)
		if err != nil {
			t.Fatal(err)
		}
		want := mustSolve(t, cfg, acts)
		sameResult(t, "regular-reuse", want, got)
	}
}

// TestPreparedConcurrentSolves hammers one PDN from several goroutines
// (exercising the engine take/put-back path) and checks every result is
// bit-identical to a serial reference. Run under -race this also proves the
// cache handoff is data-race free.
func TestPreparedConcurrentSolves(t *testing.T) {
	cfg := vsCfg(3, 2)
	cfg.Solve = circuit.SolveOptions{Solver: circuit.PCGIC0, Tol: 1e-10}
	acts := InterleavedActivities(3, 16, 0.5)
	want := mustSolve(t, cfg, acts)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	results := make([]*Result, workers)
	errs := make([]error, workers)
	done := make(chan int, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			results[w], errs[w] = p.Solve(acts)
			done <- w
		}(w)
	}
	for i := 0; i < workers; i++ {
		<-done
	}
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		sameResult(t, "concurrent", want, results[w])
	}
}
