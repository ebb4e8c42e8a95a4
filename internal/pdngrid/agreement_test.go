package pdngrid

import (
	"fmt"
	"math"
	"testing"

	"voltstack/internal/circuit"
	"voltstack/internal/sc"
)

// agreementTol is the relative agreement every solver kind must reach with
// the skyline direct reference.
const agreementTol = 1e-6

// agreementPCGTol is the relative residual the iterative kinds solve to.
// At the 1e-10 default the voltage-stacked systems agree with Direct only
// to ~2e-5 in max IR drop (closed loop, 8 layers) and ~2e-6 in pad and TSV
// currents; at 1e-12 every field lands inside agreementTol, which pins
// that each kind converges to the same network solution.
const agreementPCGTol = 1e-12

// agreementKinds are the solver kinds checked against Direct.
var agreementKinds = []circuit.SolverKind{circuit.DirectSparseND, circuit.PCGIC0, circuit.PCGAMG}

// agreementMesh is the mesh edge per layer count: each system lands just
// above the 4000-node direct threshold, so Auto would pick an iterative
// kind for it, while the skyline reference stays affordable.
var agreementMesh = map[int]int{2: 32, 4: 23, 8: 16}

// relDiff returns max|got−want| / max|want| over the vectors, the
// normwise relative deviation of got from the reference want.
func relDiff(got, want []float64) float64 {
	if len(got) != len(want) {
		return math.Inf(1)
	}
	var diff, scale float64
	for i := range want {
		diff = math.Max(diff, math.Abs(got[i]-want[i]))
		scale = math.Max(scale, math.Abs(want[i]))
	}
	if scale == 0 {
		return diff
	}
	return diff / scale
}

// agreementNodes returns the circuit node count of cfg's PDN.
func agreementNodes(t *testing.T, cfg Config, acts [][]float64) int {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	loads, err := p.rasterizeLoads(acts)
	if err != nil {
		t.Fatal(err)
	}
	freqs := make([]float64, p.ConverterCount())
	for i := range freqs {
		freqs[i] = cfg.Converter.FSw
	}
	return p.assemble(loads, freqs, nil).net.NumNodes()
}

// TestSolverKindsAgree is the tolerance-based cross-solver check that lets
// the Auto policy switch kinds safely: for regular and voltage-stacked
// PDNs at 2, 4 and 8 layers, open and closed loop, every solver kind's max
// IR drop and pad, TSV and converter currents agree with the skyline
// direct solve within agreementTol relative. Bit-equality holds only
// within one kind; this pins how far apart the kinds may be. Subtests run
// in parallel: the closed-loop skyline references dominate the cost.
func TestSolverKindsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("solves 12 PDNs above 4000 nodes with four solver kinds")
	}
	for _, layers := range []int{2, 4, 8} {
		for _, arch := range []string{"regular", "stacked"} {
			for _, loop := range []string{"open", "closed"} {
				name := fmt.Sprintf("%s-%dlayer-%s", arch, layers, loop)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					var cfg Config
					if arch == "regular" {
						cfg = regularCfg(layers, SparseTSV())
					} else {
						cfg = vsCfg(layers, 4)
					}
					if loop == "closed" {
						cfg.Control = sc.ClosedLoop{}
					}
					cfg.Params.GridNx = agreementMesh[layers]
					cfg.Params.GridNy = agreementMesh[layers]
					acts := InterleavedActivities(layers, 16, 0.5)
					if nn := agreementNodes(t, cfg, acts); nn <= 4000 {
						t.Fatalf("%d nodes, want > 4000 so Auto picks an iterative kind", nn)
					}
					cfg.Solve = circuit.SolveOptions{Solver: circuit.Direct}
					ref := mustSolve(t, cfg, acts)
					for _, kind := range agreementKinds {
						cfg.Solve = circuit.SolveOptions{Solver: kind, Tol: agreementPCGTol}
						got := mustSolve(t, cfg, acts)
						checks := []struct {
							field     string
							got, want []float64
						}{
							{"MaxIRDropFrac", []float64{got.MaxIRDropFrac}, []float64{ref.MaxIRDropFrac}},
							{"PadCurrents", got.PadCurrents, ref.PadCurrents},
							{"TSVCurrents", got.TSVCurrents, ref.TSVCurrents},
							{"ConverterCurrents", got.ConverterCurrents, ref.ConverterCurrents},
						}
						for _, c := range checks {
							if d := relDiff(c.got, c.want); !(d <= agreementTol) {
								t.Errorf("kind %d: %s deviates %.3g relative from Direct, want <= %g", kind, c.field, d, agreementTol)
							}
						}
					}
				})
			}
		}
	}
}

// transientAgreementSteps is the load-step run length of the transient
// agreement check: long enough to span the first droop.
const transientAgreementSteps = 50

// TestTransientSolverKindsAgree is the transient counterpart of
// TestSolverKindsAgree: for regular and voltage-stacked 4-layer PDNs just
// above the direct threshold, a load-step run with the sparse-ND direct
// factor (Auto's transient pick there) and one with IC(0)-PCG at a 1e-12
// residual agree within agreementTol relative — in worst droop, in the
// worst-layer droop waveform and in every probe sample.
func TestTransientSolverKindsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 2 transient PDNs above 4000 nodes with two solver kinds")
	}
	for _, arch := range []string{"regular", "stacked"} {
		t.Run(arch, func(t *testing.T) {
			t.Parallel()
			var cfg Config
			if arch == "regular" {
				cfg = regularCfg(4, SparseTSV())
			} else {
				cfg = vsCfg(4, 4)
			}
			cfg.Params.GridNx = agreementMesh[4]
			cfg.Params.GridNy = agreementMesh[4]
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tc := DefaultTransient()
			tc.Steps = transientAgreementSteps
			asm, probes, _, err := p.assembleTransient(tc)
			if err != nil {
				t.Fatal(err)
			}
			if nn := asm.net.NumNodes(); nn <= 4000 {
				t.Fatalf("%d nodes, want > 4000 so Auto picks sparse-ND", nn)
			}
			type run struct {
				droop *TransientResult
				waves *circuit.TransientResult
			}
			solve := func(kind circuit.SolverKind) run {
				opts := circuit.SolveOptions{Solver: kind, Tol: agreementPCGTol}
				p.Cfg.Solve = opts
				droop, err := p.SolveTransient(tc)
				if err != nil {
					t.Fatalf("kind %d: %v", kind, err)
				}
				waves, err := asm.net.Transient(circuit.TransientOptions{
					DT: tc.DT, Steps: tc.Steps, InitDC: true, Solve: opts,
				}, probes)
				if err != nil {
					t.Fatalf("kind %d: %v", kind, err)
				}
				return run{droop, waves}
			}
			ref := solve(circuit.DirectSparseND)
			got := solve(circuit.PCGIC0)
			check := func(field string, got, want []float64) {
				if d := relDiff(got, want); !(d <= agreementTol) {
					t.Errorf("PCGIC0: %s deviates %.3g relative from DirectSparseND, want <= %g", field, d, agreementTol)
				}
			}
			check("WorstDroopFrac", []float64{got.droop.WorstDroopFrac}, []float64{ref.droop.WorstDroopFrac})
			check("Droop", got.droop.Droop, ref.droop.Droop)
			for i, node := range probes {
				check(fmt.Sprintf("probe %d (node %d)", i, node), got.waves.V[i], ref.waves.V[i])
			}
		})
	}
}
