package circuit

import (
	"errors"
	"fmt"
	"math"

	"voltstack/internal/sparse"
	"voltstack/internal/telemetry"
)

// Transient layer timing: the step-matrix factorization (or preconditioner
// build) and the whole step loop, one sample each per run. Both are no-ops
// while telemetry is off.
var (
	mTransientFactorSeconds = telemetry.NewHistogram("circuit_transient_factor_seconds")
	mTransientStepsSeconds  = telemetry.NewHistogram("circuit_transient_steps_seconds")
)

// CapID identifies a capacitor.
type CapID int

// IndID identifies an inductor.
type IndID int

// TLoadID identifies a time-varying load.
type TLoadID int

type capacitor struct {
	a, b int
	c    float64
}

type inductor struct {
	a, b int
	l    float64
}

// tload is a load current source whose magnitude follows fn(t).
type tload struct {
	from, to int
	fn       func(t float64) float64
}

// AddCapacitor connects a capacitor of the given value between a and b.
// Capacitors only participate in Transient analysis; the DC Solve ignores
// them (open circuit), matching their steady-state behavior.
func (n *Netlist) AddCapacitor(a, b int, farads float64) CapID {
	n.checkNode(a)
	n.checkNode(b)
	if farads <= 0 {
		panic(fmt.Sprintf("circuit: capacitance must be positive, got %g", farads))
	}
	if a == b {
		panic("circuit: capacitor endpoints must differ")
	}
	n.caps = append(n.caps, capacitor{a, b, farads})
	return CapID(len(n.caps) - 1)
}

// AddInductor connects an inductor between a and b. In the DC Solve it
// behaves as a short with a small resistance (its series companion at
// dt→∞ is ill-defined, so DC treats it as RIndDC); in Transient analysis
// it integrates v = L·di/dt with a backward-Euler companion model.
func (n *Netlist) AddInductor(a, b int, henries float64) IndID {
	n.checkNode(a)
	n.checkNode(b)
	if henries <= 0 {
		panic(fmt.Sprintf("circuit: inductance must be positive, got %g", henries))
	}
	if a == b {
		panic("circuit: inductor endpoints must differ")
	}
	n.inductors = append(n.inductors, inductor{a, b, henries})
	return IndID(len(n.inductors) - 1)
}

// RIndDC is the resistance inductors present to the DC operating-point
// solve (they are ideally shorts at DC).
const RIndDC = 1e-6

// AddTransientLoad adds a load whose current is fn(t) amperes, drawn from
// `from` and returned into `to`. During the DC operating-point solve the
// load takes its fn(0) value.
func (n *Netlist) AddTransientLoad(from, to int, fn func(t float64) float64) TLoadID {
	n.checkNode(from)
	n.checkNode(to)
	if fn == nil {
		panic("circuit: nil transient load function")
	}
	n.tloads = append(n.tloads, tload{from, to, fn})
	return TLoadID(len(n.tloads) - 1)
}

// TransientOptions configures a transient run.
type TransientOptions struct {
	DT    float64 // time step (s)
	Steps int     // number of steps after t=0
	// InitDC starts from the DC operating point at t=0 loads (default).
	// When false the run starts from all-zero node voltages.
	InitDC bool
	Solve  SolveOptions // solver for the DC init and the step matrix
}

// TransientResult holds probed waveforms.
type TransientResult struct {
	Times  []float64
	Probes []int       // the probed node ids
	V      [][]float64 // V[p][k]: probe p at time step k (includes t=0)
}

// MinV returns the minimum of probe p over the run.
func (r *TransientResult) MinV(p int) float64 {
	m := math.Inf(1)
	for _, v := range r.V[p] {
		if v < m {
			m = v
		}
	}
	return m
}

// MaxV returns the maximum of probe p over the run.
func (r *TransientResult) MaxV(p int) float64 {
	m := math.Inf(-1)
	for _, v := range r.V[p] {
		if v > m {
			m = v
		}
	}
	return m
}

// ErrTransient wraps transient-analysis failures.
var ErrTransient = errors.New("circuit: transient analysis failed")

// StepMatrix assembles the constant backward-Euler step matrix for time
// step dt — conductances plus the C/dt and dt/L companion terms — and the
// step right-hand side's static part: rail-tie injections and DC loads.
func (n *Netlist) StepMatrix(dt float64) (*sparse.CSR, []float64) {
	nn := n.numNodes
	b := sparse.NewBuilder(nn)
	rhsBase := make([]float64, nn)
	for _, r := range n.resistors {
		stampConductance(b, r.a, r.b, r.g)
	}
	for _, t := range n.ties {
		b.Add(t.node, t.node, t.g)
		rhsBase[t.node] += t.g * t.vRail
	}
	for _, l := range n.loads {
		if l.from != Ground {
			rhsBase[l.from] -= l.i
		}
		if l.to != Ground {
			rhsBase[l.to] += l.i
		}
	}
	for _, c := range n.converters {
		stampConverter(b, c)
	}
	for _, c := range n.caps {
		stampConductance(b, c.a, c.b, c.c/dt)
	}
	for _, l := range n.inductors {
		stampConductance(b, l.a, l.b, dt/l.l)
	}
	return b.ToCSR(), rhsBase
}

// Transient integrates the network with backward Euler at fixed step DT,
// recording the given probe nodes. Static loads keep their DC values;
// transient loads follow their functions; capacitors and inductors use
// companion models. The step matrix is factored once (direct solver) or
// warm-started (iterative), so long runs are cheap: with a direct solver
// each step is two triangular sweeps and allocates nothing.
func (n *Netlist) Transient(opts TransientOptions, probes []int) (*TransientResult, error) {
	if opts.DT <= 0 || opts.Steps <= 0 {
		return nil, fmt.Errorf("%w: need positive DT and Steps", ErrTransient)
	}
	for _, p := range probes {
		n.checkNode(p)
	}
	if err := n.CheckConnectivity(); err != nil {
		return nil, err
	}
	nn := n.numNodes
	dt := opts.DT

	// Initial condition.
	v := make([]float64, nn)
	if opts.InitDC {
		dc, err := n.Solve(opts.Solve)
		if err != nil {
			return nil, fmt.Errorf("%w: DC init: %v", ErrTransient, err)
		}
		copy(v, dc.v)
	}

	a, rhsBase := n.StepMatrix(dt)

	t0 := telemetry.Now()
	kind, tol, maxIter := opts.Solve.resolve(stepMatrix, nn)
	var chol interface{ SolveScratch(dst, b, work []float64) }
	var prec sparse.Preconditioner
	var ws *sparse.PCGWorkspace
	var err error
	switch kind {
	case Direct:
		chol, err = sparse.FactorCholesky(a)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrTransient, err)
		}
	case DirectSparseND:
		chol, err = sparse.FactorSparse(a, sparse.OrderND)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrTransient, err)
		}
	case PCGIC0:
		if ic, e := sparse.NewIC0(a); e == nil {
			prec = ic
		} else {
			prec = sparse.NewJacobi(a)
		}
	case PCGJacobi:
		prec = sparse.NewJacobi(a)
	case PCGAMG:
		return nil, fmt.Errorf("%w: solver PCGAMG is not supported in transient analysis", ErrTransient)
	default:
		return nil, fmt.Errorf("%w: unknown solver %d", ErrTransient, kind)
	}
	if prec != nil {
		// One scratch workspace serves every step's PCG solve.
		ws = sparse.NewPCGWorkspace(nn)
	}
	mTransientFactorSeconds.Since(t0)

	// Inductor current state at the operating point: solve from branch
	// voltage is zero at a true DC point (ideal shorts), so the DC
	// current equals whatever keeps KCL; initialize from the DC solve by
	// treating the inductor as RIndDC in Solve()... The DC solve above
	// already included them as resistors of RIndDC, so recover i = v/R.
	iL := make([]float64, len(n.inductors))
	if opts.InitDC {
		for k, l := range n.inductors {
			va, vb := nodeV(v, l.a), nodeV(v, l.b)
			iL[k] = (va - vb) / RIndDC
		}
	}

	// Waveforms are sized up front, so the step loop never grows them.
	res := &TransientResult{
		Times:  make([]float64, 0, opts.Steps+1),
		Probes: append([]int(nil), probes...),
		V:      make([][]float64, len(probes)),
	}
	for i := range res.V {
		res.V[i] = make([]float64, 0, opts.Steps+1)
	}
	record := func(t float64) {
		res.Times = append(res.Times, t)
		for i, p := range probes {
			res.V[i] = append(res.V[i], nodeV(v, p))
		}
	}
	record(0)

	t0 = telemetry.Now()
	rhs := make([]float64, nn)
	work := make([]float64, nn)
	for step := 1; step <= opts.Steps; step++ {
		t := float64(step) * dt
		copy(rhs, rhsBase)
		for _, tl := range n.tloads {
			i := tl.fn(t)
			if tl.from != Ground {
				rhs[tl.from] -= i
			}
			if tl.to != Ground {
				rhs[tl.to] += i
			}
		}
		for _, c := range n.caps {
			q := c.c / dt * (nodeV(v, c.a) - nodeV(v, c.b))
			if c.a != Ground {
				rhs[c.a] += q
			}
			if c.b != Ground {
				rhs[c.b] -= q
			}
		}
		for k, l := range n.inductors {
			// Companion: i_new = iL + dt/L (Va-Vb); the history current
			// iL enters as a source from a to b.
			if l.a != Ground {
				rhs[l.a] -= iL[k]
			}
			if l.b != Ground {
				rhs[l.b] += iL[k]
			}
		}

		if chol != nil {
			chol.SolveScratch(v, rhs, work)
		} else {
			x, _, err := sparse.PCGW(a, rhs, v, prec, tol, maxIter, ws)
			if err != nil {
				return nil, fmt.Errorf("%w: step %d: %v", ErrTransient, step, err)
			}
			copy(v, x)
		}
		for k, l := range n.inductors {
			iL[k] += dt / l.l * (nodeV(v, l.a) - nodeV(v, l.b))
		}
		record(t)
	}
	mTransientStepsSeconds.Since(t0)
	return res, nil
}

func nodeV(v []float64, node int) float64 {
	if node == Ground {
		return 0
	}
	return v[node]
}
