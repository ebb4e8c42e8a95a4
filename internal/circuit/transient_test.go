package circuit

import (
	"errors"
	"math"
	"runtime/debug"
	"strings"
	"testing"

	"voltstack/internal/telemetry"
	"voltstack/internal/units"
)

func TestTransientRCStepResponse(t *testing.T) {
	// Series R-C driven by a 1 V rail: v(t) = 1 - exp(-t/RC).
	const r = 100.0
	const c = 1e-6
	n := New()
	out := n.Node()
	n.AddRailTie(out, r, 1.0)
	n.AddCapacitor(out, Ground, c)
	tau := r * c
	res, err := n.Transient(TransientOptions{DT: tau / 200, Steps: 1000}, []int{out})
	if err != nil {
		t.Fatal(err)
	}
	// InitDC=false: start from zero and charge up.
	for k, tm := range res.Times {
		want := 1 - math.Exp(-tm/tau)
		if math.Abs(res.V[0][k]-want) > 0.01 {
			t.Fatalf("t=%g: v=%g, want %g", tm, res.V[0][k], want)
		}
	}
}

func TestTransientRCDischarge(t *testing.T) {
	// Start from the DC point (1 V across the cap via a stiff tie), then
	// a transient load discharges it through the source resistance.
	const r = 10.0
	const c = 1e-6
	n := New()
	out := n.Node()
	n.AddRailTie(out, r, 1.0)
	n.AddCapacitor(out, Ground, c)
	// Constant 50 mA transient load switched on for t>0.
	n.AddTransientLoad(out, Ground, func(tm float64) float64 {
		if tm > 0 {
			return 0.05
		}
		return 0
	})
	tau := r * c
	res, err := n.Transient(TransientOptions{DT: tau / 100, Steps: 800, InitDC: true}, []int{out})
	if err != nil {
		t.Fatal(err)
	}
	if res.V[0][0] != 1.0 {
		t.Fatalf("DC init = %g, want 1.0", res.V[0][0])
	}
	// Final value: 1 - I*R = 0.5 V, approached exponentially.
	final := res.V[0][len(res.V[0])-1]
	if !units.ApproxEqual(final, 0.5, 0.01, 0.02) {
		t.Errorf("final = %g, want 0.5", final)
	}
	if res.MinV(0) < 0.49 {
		t.Errorf("undershoot to %g", res.MinV(0))
	}
}

func TestTransientRLRise(t *testing.T) {
	// Series R-L from a 1 V rail into a grounded resistor: current rises
	// with tau = L/Rtotal; node voltage across the load resistor follows.
	const rSrc = 1.0
	const rLoad = 1.0
	const l = 1e-6
	n := New()
	a := n.Node()
	out := n.Node()
	n.AddRailTie(a, rSrc, 1.0)
	n.AddInductor(a, out, l)
	n.AddResistor(out, Ground, rLoad)
	tau := l / (rSrc + rLoad)
	res, err := n.Transient(TransientOptions{DT: tau / 200, Steps: 1200}, []int{out})
	if err != nil {
		t.Fatal(err)
	}
	for k, tm := range res.Times {
		if k == 0 {
			continue
		}
		iWant := (1.0 / (rSrc + rLoad)) * (1 - math.Exp(-tm/tau))
		want := iWant * rLoad
		if math.Abs(res.V[0][k]-want) > 0.01 {
			t.Fatalf("t=%g: v=%g, want %g", tm, res.V[0][k], want)
		}
	}
}

func TestTransientRLCDroop(t *testing.T) {
	// The canonical PDN event: package L, pad R, on-die decap, load step.
	// The first droop must exceed the final IR level (inductive kick) and
	// ring toward the DC value.
	const rPkg = 5e-3 // enough damping to settle within the run
	const lPkg = 50e-12
	const cDie = 100e-9
	const iStep = 10.0
	n := New()
	board := n.Node()
	die := n.Node()
	n.AddRailTie(board, rPkg, 1.0)
	n.AddInductor(board, die, lPkg)
	n.AddCapacitor(die, Ground, cDie)
	n.AddResistor(die, Ground, 1e6) // leak keeps the DC point defined
	n.AddTransientLoad(die, Ground, func(tm float64) float64 {
		if tm > 0 {
			return iStep
		}
		return 0
	})
	dt := 10e-12
	res, err := n.Transient(TransientOptions{DT: dt, Steps: 12000, InitDC: true}, []int{die})
	if err != nil {
		t.Fatal(err)
	}
	finalDC := 1.0 - iStep*rPkg
	droop := res.MinV(0)
	if droop >= finalDC-1e-4 {
		t.Errorf("first droop %g should undershoot the DC level %g", droop, finalDC)
	}
	last := res.V[0][len(res.V[0])-1]
	if !units.ApproxEqual(last, finalDC, 5e-3, 1e-2) {
		t.Errorf("settled at %g, want %g", last, finalDC)
	}
}

func TestTransientMoreDecapLessDroop(t *testing.T) {
	run := func(c float64) float64 {
		n := New()
		board := n.Node()
		die := n.Node()
		n.AddRailTie(board, 1e-3, 1.0)
		n.AddInductor(board, die, 50e-12)
		n.AddCapacitor(die, Ground, c)
		n.AddResistor(die, Ground, 1e6)
		n.AddTransientLoad(die, Ground, func(tm float64) float64 {
			if tm > 0 {
				return 10
			}
			return 0
		})
		res, err := n.Transient(TransientOptions{DT: 10e-12, Steps: 3000, InitDC: true}, []int{die})
		if err != nil {
			t.Fatal(err)
		}
		return 1.0 - res.MinV(0)
	}
	small, big := run(20e-9), run(200e-9)
	if big >= small {
		t.Errorf("10x decap should shrink droop: %g -> %g", small, big)
	}
}

func TestTransientStaticNetworkIsFlat(t *testing.T) {
	// No dynamic elements: every step reproduces the DC solution.
	n := New()
	a := n.Node()
	n.AddRailTie(a, 1, 1.0)
	n.AddResistor(a, Ground, 1)
	n.AddCapacitor(a, Ground, 1e-9)
	res, err := n.Transient(TransientOptions{DT: 1e-9, Steps: 50, InitDC: true}, []int{a})
	if err != nil {
		t.Fatal(err)
	}
	for k := range res.Times {
		if !units.ApproxEqual(res.V[0][k], 0.5, 1e-9, 1e-9) {
			t.Fatalf("step %d: %g, want 0.5", k, res.V[0][k])
		}
	}
}

func TestTransientValidation(t *testing.T) {
	n := New()
	a := n.Node()
	n.AddRailTie(a, 1, 1)
	if _, err := n.Transient(TransientOptions{DT: 0, Steps: 10}, nil); err == nil {
		t.Error("zero DT not caught")
	}
	if _, err := n.Transient(TransientOptions{DT: 1e-9, Steps: 0}, nil); err == nil {
		t.Error("zero steps not caught")
	}
	defer func() {
		if recover() == nil {
			t.Error("bad probe should panic")
		}
	}()
	_, _ = n.Transient(TransientOptions{DT: 1e-9, Steps: 1}, []int{99})
}

// An explicit PCGAMG request is refused by name: transient analysis has
// no AMG path.
func TestTransientRejectsAMG(t *testing.T) {
	n := New()
	a := n.Node()
	n.AddRailTie(a, 1, 1)
	n.AddCapacitor(a, Ground, 1e-9)
	_, err := n.Transient(TransientOptions{DT: 1e-9, Steps: 1, Solve: SolveOptions{Solver: PCGAMG}}, nil)
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "PCGAMG") || !strings.Contains(msg, "not supported in transient") {
		t.Fatalf("error %q does not name PCGAMG as unsupported in transient", msg)
	}
}

func TestTransientElementValidation(t *testing.T) {
	n := New()
	a := n.Node()
	cases := []func(){
		func() { n.AddCapacitor(a, a, 1e-9) },
		func() { n.AddCapacitor(a, Ground, 0) },
		func() { n.AddInductor(a, a, 1e-9) },
		func() { n.AddInductor(a, Ground, -1) },
		func() { n.AddTransientLoad(a, Ground, nil) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestTransientSolverAgreement(t *testing.T) {
	build := func() *Netlist {
		n := New()
		board := n.Node()
		die := n.Node()
		n.AddRailTie(board, 1e-3, 1.0)
		n.AddInductor(board, die, 20e-12)
		n.AddCapacitor(die, Ground, 50e-9)
		n.AddResistor(die, Ground, 1e5)
		n.AddTransientLoad(die, Ground, func(tm float64) float64 {
			if tm > 0 {
				return 5
			}
			return 0
		})
		return n
	}
	opts := TransientOptions{DT: 20e-12, Steps: 500, InitDC: true}
	optsI := opts
	optsI.Solve = SolveOptions{Solver: PCGIC0, Tol: 1e-12}
	rd, err := build().Transient(opts, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	ri, err := build().Transient(optsI, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	for k := range rd.Times {
		if !units.ApproxEqual(rd.V[0][k], ri.V[0][k], 1e-6, 1e-5) {
			t.Fatalf("solvers diverge at step %d: %g vs %g", k, rd.V[0][k], ri.V[0][k])
		}
	}
}

func TestDCSolveWithDynamicElements(t *testing.T) {
	// DC treats caps as open and inductors as shorts.
	n := New()
	a := n.Node()
	b := n.Node()
	n.AddRailTie(a, 1, 1.0)
	n.AddInductor(a, b, 1e-9)
	n.AddResistor(b, Ground, 1)
	n.AddCapacitor(b, Ground, 1e-9)
	s, err := n.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !units.ApproxEqual(s.V(b), 0.5, 1e-4, 1e-4) {
		t.Errorf("V(b) = %g, want ~0.5 (inductor ~ short)", s.V(b))
	}
}

// meshRC builds an nodes-node RC ladder mesh (rows of 50) with pad ties
// along the first row, decap on every node and one stepped load at the far
// corner.
func meshRC(nodes int) *Netlist {
	const w = 50
	n := New()
	ids := n.Nodes(nodes)
	for i, id := range ids {
		if i%w+1 < w && i+1 < nodes {
			n.AddResistor(id, ids[i+1], 0.1)
		}
		if i+w < nodes {
			n.AddResistor(id, ids[i+w], 0.1)
		}
		if i < w {
			n.AddRailTie(id, 0.5, 1)
		}
		n.AddCapacitor(id, Ground, 1e-12)
	}
	n.AddTransientLoad(ids[nodes-1], Ground, func(t float64) float64 {
		if t > 0 {
			return 0.1
		}
		return 0.01
	})
	return n
}

// TestTransientStepsAllocateNothing pins that a transient run's allocation
// count does not grow with Steps: at the direct threshold (skyline) and
// just above it (sparse-ND), the step loop solves in fixed scratch. The
// collector is paused while counting, because a cycle that lands inside
// the run adds a few runtime allocations of its own.
func TestTransientStepsAllocateNothing(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, nodes := range []int{directThreshold, directThreshold + 1} {
		n := meshRC(nodes)
		probes := []int{0, nodes - 1}
		allocs := func(steps int) float64 {
			return testing.AllocsPerRun(1, func() {
				if _, err := n.Transient(TransientOptions{DT: 1e-11, Steps: steps, InitDC: true}, probes); err != nil {
					t.Fatal(err)
				}
			})
		}
		if a10, a100 := allocs(10), allocs(100); a100 != a10 {
			t.Errorf("%d nodes: %.0f allocations at 100 steps vs %.0f at 10", nodes, a100, a10)
		}
	}
}

// TestTransientLayerTiming checks that a transient run records one sample
// in each transient layer histogram while telemetry is on, and none while
// it is off.
func TestTransientLayerTiming(t *testing.T) {
	n := meshRC(100)
	run := func() {
		if _, err := n.Transient(TransientOptions{DT: 1e-11, Steps: 5, InitDC: true}, []int{0}); err != nil {
			t.Fatal(err)
		}
	}
	hists := []*telemetry.Histogram{mTransientFactorSeconds, mTransientStepsSeconds}
	counts := func() []int64 {
		return []int64{hists[0].Count(), hists[1].Count()}
	}
	before := counts()
	run()
	if got := counts(); got[0] != before[0] || got[1] != before[1] {
		t.Fatalf("telemetry off: histogram counts moved %v -> %v", before, got)
	}
	telemetry.Enable()
	defer telemetry.Disable()
	run()
	if got := counts(); got[0] != before[0]+1 || got[1] != before[1]+1 {
		t.Errorf("telemetry on: histogram counts %v -> %v, want one sample each", before, got)
	}
}
