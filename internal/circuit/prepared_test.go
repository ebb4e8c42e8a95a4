package circuit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// allKinds are the concrete solver kinds plus Auto.
var allKinds = []SolverKind{Auto, Direct, DirectSparseND, PCGIC0, PCGJacobi, PCGAMG}

func sameSolution(t *testing.T, label string, fresh, prep *Solution, nn int) {
	t.Helper()
	if fresh.Iterations != prep.Iterations {
		t.Fatalf("%s: iterations %d vs %d", label, fresh.Iterations, prep.Iterations)
	}
	if math.Float64bits(fresh.Residual) != math.Float64bits(prep.Residual) {
		t.Fatalf("%s: residual %v vs %v", label, fresh.Residual, prep.Residual)
	}
	for i := 0; i < nn; i++ {
		if math.Float64bits(fresh.V(i)) != math.Float64bits(prep.V(i)) {
			t.Fatalf("%s: node %d: %v vs %v (bitwise)", label, i, fresh.V(i), prep.V(i))
		}
	}
}

func TestPreparedMatchesFreshAllKinds(t *testing.T) {
	for _, kind := range allKinds {
		rng := rand.New(rand.NewSource(42))
		n := randomStackNetwork(rng)
		opts := SolveOptions{Solver: kind}
		fresh, err := n.Solve(opts)
		if err != nil {
			t.Fatalf("kind %d: fresh: %v", kind, err)
		}
		p, err := n.Compile(opts)
		if err != nil {
			t.Fatalf("kind %d: compile: %v", kind, err)
		}
		// Repeat solves must all match (factor reuse does not drift).
		for rep := 0; rep < 3; rep++ {
			got, err := p.Solve(nil)
			if err != nil {
				t.Fatalf("kind %d rep %d: prepared: %v", kind, rep, err)
			}
			sameSolution(t, "prepared", fresh, got, n.NumNodes())
		}
	}
}

func TestPreparedSettersMatchFresh(t *testing.T) {
	// After changing converter values, load currents, tie rails, and a
	// resistor through the prepared engine, the solve must be bit-identical
	// to a fresh netlist built with the new values.
	for _, kind := range allKinds[1:] {
		rng := rand.New(rand.NewSource(7))
		n := randomStackNetwork(rng)
		opts := SolveOptions{Solver: kind}
		p, err := n.Compile(opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Solve(nil); err != nil {
			t.Fatal(err)
		}
		// Perturb every element class.
		for id := range n.converters {
			c := n.converters[id]
			p.SetConverter(ConverterID(id), 1/(c.gSeries*1.3), c.gPar*0.7)
		}
		for id := range n.loads {
			p.SetLoad(LoadID(id), n.loads[id].i*1.1)
		}
		for id := range n.ties {
			p.SetTieRail(TieID(id), n.ties[id].vRail*0.95)
		}
		p.SetResistor(ResistorID(0), 1/n.resistors[0].g*2)

		got, err := p.Solve(nil)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := n.Solve(opts) // same netlist: setters mutated it in place
		if err != nil {
			t.Fatal(err)
		}
		sameSolution(t, "after-setters", fresh, got, n.NumNodes())
	}
}

func TestPreparedRestampProperty(t *testing.T) {
	// Random conductance perturbations through the setters keep the
	// prepared solve bit-identical to a from-scratch solve.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomStackNetwork(rng)
		opts := SolveOptions{Solver: Direct}
		p, err := n.Compile(opts)
		if err != nil {
			return false
		}
		for round := 0; round < 3; round++ {
			for id := range n.resistors {
				if rng.Intn(2) == 0 {
					p.SetResistor(ResistorID(id), (0.01+rng.Float64()*0.2)*1)
				}
			}
			for id := range n.converters {
				if rng.Intn(2) == 0 {
					p.SetConverter(ConverterID(id), 0.3+rng.Float64(), rng.Float64()*1e-3)
				}
			}
			got, err := p.Solve(nil)
			if err != nil {
				return false
			}
			fresh, err := n.Solve(opts)
			if err != nil {
				return false
			}
			for i := 0; i < n.NumNodes(); i++ {
				if math.Float64bits(fresh.V(i)) != math.Float64bits(got.V(i)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPreparedGParZeroTransitionRecompiles(t *testing.T) {
	// Driving a converter's parasitic shunt to zero removes matrix entries;
	// the engine must detect the structure change and still match fresh.
	rng := rand.New(rand.NewSource(3))
	n := randomStackNetwork(rng)
	p, err := n.Compile(SolveOptions{Solver: Direct})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Solve(nil); err != nil {
		t.Fatal(err)
	}
	for id := range n.converters {
		c := n.converters[id]
		p.SetConverter(ConverterID(id), 1/c.gSeries, 0)
	}
	got, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := n.Solve(SolveOptions{Solver: Direct})
	if err != nil {
		t.Fatal(err)
	}
	sameSolution(t, "gpar-zero", fresh, got, n.NumNodes())

	// And back to nonzero.
	for id := range n.converters {
		c := n.converters[id]
		p.SetConverter(ConverterID(id), 1/c.gSeries, 1e-4)
	}
	got, err = p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err = n.Solve(SolveOptions{Solver: Direct})
	if err != nil {
		t.Fatal(err)
	}
	sameSolution(t, "gpar-back", fresh, got, n.NumNodes())
}

func TestPreparedTopologyGrowthRecompiles(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := randomStackNetwork(rng)
	p, err := n.Compile(SolveOptions{Solver: Direct})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Solve(nil); err != nil {
		t.Fatal(err)
	}
	// Add a node and elements out-of-band.
	nd := n.Node()
	n.AddResistor(nd, 0, 0.5)
	n.AddLoad(nd, Ground, 0.1)
	got, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := n.Solve(SolveOptions{Solver: Direct})
	if err != nil {
		t.Fatal(err)
	}
	sameSolution(t, "growth", fresh, got, n.NumNodes())
}

func TestPreparedWarmStartConverges(t *testing.T) {
	// A warm start from the exact solution must converge immediately (0
	// iterations) and still return that solution.
	rng := rand.New(rand.NewSource(9))
	n := randomStackNetwork(rng)
	opts := SolveOptions{Solver: PCGIC0}
	p, err := n.Compile(opts)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	x0 := make([]float64, n.NumNodes())
	for i := range x0 {
		x0[i] = cold.V(i)
	}
	warm, err := p.Solve(x0)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations > cold.Iterations {
		t.Fatalf("warm start took %d iterations, cold %d", warm.Iterations, cold.Iterations)
	}
	for i := 0; i < n.NumNodes(); i++ {
		if math.Abs(warm.V(i)-cold.V(i)) > 1e-8 {
			t.Fatalf("warm solution drifted at node %d: %v vs %v", i, warm.V(i), cold.V(i))
		}
	}
}

func TestPreparedEmptyNetlist(t *testing.T) {
	n := New()
	p, err := n.Compile(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.V(Ground) != 0 {
		t.Fatal("ground must be 0")
	}
}
