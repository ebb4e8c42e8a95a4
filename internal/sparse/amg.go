// Aggregation-based algebraic multigrid, used as a PCG preconditioner for
// grids beyond the reach of IC(0). Greedy strongest-neighbor pairing builds
// the aggregates, the Galerkin triple product PᵀAP builds each coarse
// operator (SPD whenever A is, since P has full column rank), and one
// symmetric V-cycle — equal weighted-Jacobi pre/post sweeps around a direct
// skyline solve on the coarsest level — serves as the preconditioner
// application. Equal sweep counts keep M⁻¹ symmetric positive definite,
// which PCG requires.
//
// Regular PDNs and thermal grids are weakly diagonally dominant
// M-matrices. Voltage-stacked PDNs are not: a converter stamps g·ccᵀ with
// c = (½, ½, −1) on (top, bottom, mid), a positive +g/4 coupling between
// the two outer rails, and rows that touch converters may exceed
// diagonal dominance slightly (by ≤ 0.8 % on the paper's PDNs). Gershgorin
// still bounds λmax(D⁻¹A) ≤ max_i Σ_j |a_ij|/a_ii ≤ 2.008 there, so the
// weighted-Jacobi smoother with ω = 2/3 keeps ωλmax ≤ 1.34 < 2 and stays
// an A-norm contraction on every PDN matrix, stacked or not.
//
// Aggregation is rail-preserving: a node never pairs across a positive
// off-diagonal coupling, nor across either other edge of a triangle that
// a positive coupling closes (a converter's top–mid and bottom–mid
// edges). Otherwise, once a rail has shrunk to a few aggregates, the
// converter couplings are the strongest left and aggregates merge
// different rails; a piecewise-constant P then cannot represent the
// rail-offset modes that the converters barely resist, and PCG iterations
// grow with stack depth. M-matrices have no positive off-diagonal, so on
// them the rule is the plain sign-blind pairing.
package sparse

import (
	"fmt"
	"log/slog"
	"math"

	"voltstack/internal/telemetry"
)

var (
	mAMGBuilds       = telemetry.NewCounter("sparse_amg_builds_total")
	mAMGLevels       = telemetry.NewHistogram("sparse_amg_levels")
	mAMGLastLevels   = telemetry.NewGauge("sparse_amg_last_levels")
	mAMGLastCoarseN  = telemetry.NewGauge("sparse_amg_last_coarse_n")
	mAMGOpComplexity = telemetry.NewGauge("sparse_amg_operator_complexity")
)

// The hierarchy's fixed shape. One pre- and one post-smoothing sweep keep
// the V-cycle symmetric.
const (
	amgMaxLevels  = 25      // hierarchy depth cap, including the coarsest
	amgCoarseSize = 64      // stop coarsening at or below this many unknowns
	amgOmega      = 2.0 / 3 // weighted-Jacobi damping factor
	// amgMinShrink is the fraction of a level's unknowns that aggregation
	// must remove for the coarser level to be kept. Pairwise aggregation
	// removes about half. On a voltage-stacked matrix's coarsest levels
	// most couplings are banned and pairing removes only a handful of
	// nodes per level; a direct factor of that level is cheaper than more
	// levels.
	amgMinShrink = 1.0 / 8
)

// amgLevel is one non-coarsest level of the hierarchy: its operator, the
// inverse diagonal for Jacobi smoothing, and the aggregate index of every
// unknown on the next coarser level. All fields are immutable after
// construction, so levels are shared between scratch forks.
type amgLevel struct {
	a       *CSR
	invDiag []float64
	agg     []int32
	nc      int
	// Aggregate member lists: aggregate g's fine rows are
	// aggRows[aggPtr[g]:aggPtr[g+1]], ascending. Restriction gathers over
	// them in exactly the order the historical scatter loop summed, so the
	// gather is bit-identical to it.
	aggPtr  []int32
	aggRows []int32
}

// AMGPrec is an aggregation-AMG preconditioner: Apply runs one symmetric
// V-cycle on the hierarchy. The hierarchy (levels, coarse factor) is
// immutable and shared by forks; the per-level scratch vectors are owned
// per instance, so a single AMGPrec must not Apply concurrently with
// itself but scratch forks may run in parallel.
type AMGPrec struct {
	levels []*amgLevel
	coarse *SkylineChol
	ns     []int // unknowns per level, finest first, coarsest last
	nnzs   []int // operator nonzeros per level, finest first
	// V-cycle scratch, one vector per level: xs/bs carry the coarse-level
	// iterate and right-hand side (index 0 unused — the finest-level pair
	// is the caller's r/z), rs the smoothing/restriction residual.
	xs, bs, rs [][]float64
}

// NewAMG builds the multigrid hierarchy for the SPD matrix a. The matrix
// is captured by reference for the finest-level smoother; mutating its
// values afterwards invalidates the preconditioner (rebuild instead, as
// with the other factorizations in this package).
func NewAMG(a *CSR) (*AMGPrec, error) {
	t0 := telemetry.Now()
	defer func() { mPrecondBuilds.Add(1); mPrecondSeconds.Since(t0) }()
	p := &AMGPrec{ns: []int{a.N()}, nnzs: []int{a.NNZ()}}
	cur, signed := a, positiveRows(a)
	for cur.N() > amgCoarseSize && len(p.levels)+1 < amgMaxLevels {
		lvl, coarseA, coarseSigned, err := coarsenPairwise(cur, signed)
		if err != nil {
			return nil, err
		}
		if lvl == nil {
			break // coarsening stalled; factor what we have
		}
		p.levels = append(p.levels, lvl)
		p.ns = append(p.ns, lvl.nc)
		p.nnzs = append(p.nnzs, coarseA.NNZ())
		cur, signed = coarseA, coarseSigned
	}
	f, err := FactorCholesky(cur)
	if err != nil {
		return nil, fmt.Errorf("sparse: AMG coarse factorization (n=%d): %w", cur.N(), err)
	}
	p.coarse = f
	p.allocScratch()
	st := p.Stats()
	mAMGBuilds.Add(1)
	mAMGLevels.Observe(float64(len(p.ns)))
	mAMGLastLevels.Set(float64(st.Levels))
	mAMGLastCoarseN.Set(float64(st.CoarseN))
	mAMGOpComplexity.Set(st.OperatorComplexity)
	telemetry.RecordAMGHierarchy(p.ns, st.OperatorComplexity)
	if telemetry.EventsEnabled() {
		telemetry.Event(slog.LevelInfo, "sparse: AMG hierarchy built",
			slog.Int("levels", st.Levels),
			slog.Int("finest_n", p.ns[0]),
			slog.Int("coarse_n", st.CoarseN),
			slog.Float64("operator_complexity", st.OperatorComplexity))
	}
	return p, nil
}

// AMGStats describes a built hierarchy: depth, per-level sizes, and the
// operator-complexity ratio Σ level nnz / finest nnz (a grid-independent
// memory/work overhead figure; ~2 is typical for pairwise aggregation).
type AMGStats struct {
	Levels             int     `json:"levels"`
	LevelUnknowns      []int   `json:"level_unknowns"`
	LevelNNZ           []int   `json:"level_nnz"`
	OperatorComplexity float64 `json:"operator_complexity"`
	// GridComplexity is Σ level unknowns / finest unknowns — with
	// OperatorComplexity, the standard pair of hierarchy-cost ratios.
	GridComplexity float64 `json:"grid_complexity"`
	CoarseN        int     `json:"coarse_n"`
}

// Stats returns the hierarchy shape of a built preconditioner.
func (p *AMGPrec) Stats() AMGStats {
	st := AMGStats{
		Levels:        len(p.ns),
		LevelUnknowns: append([]int(nil), p.ns...),
		LevelNNZ:      append([]int(nil), p.nnzs...),
		CoarseN:       p.CoarseN(),
	}
	total := 0
	for _, nnz := range p.nnzs {
		total += nnz
	}
	if len(p.nnzs) > 0 && p.nnzs[0] > 0 {
		st.OperatorComplexity = float64(total) / float64(p.nnzs[0])
	}
	unknowns := 0
	for _, n := range p.ns {
		unknowns += n
	}
	if len(p.ns) > 0 && p.ns[0] > 0 {
		st.GridComplexity = float64(unknowns) / float64(p.ns[0])
	}
	return st
}

// Levels returns the hierarchy depth, counting the coarsest level.
func (p *AMGPrec) Levels() int { return len(p.ns) }

// CoarseN returns the number of unknowns on the directly-solved coarsest
// level.
func (p *AMGPrec) CoarseN() int { return p.ns[len(p.ns)-1] }

func (p *AMGPrec) allocScratch() {
	depth := len(p.ns)
	p.xs = make([][]float64, depth)
	p.bs = make([][]float64, depth)
	p.rs = make([][]float64, depth)
	for ell, n := range p.ns {
		if ell > 0 {
			p.xs[ell] = make([]float64, n)
			p.bs[ell] = make([]float64, n)
		}
		if ell < len(p.levels) {
			p.rs[ell] = make([]float64, n)
		}
	}
}

// forkScratch returns a view sharing the immutable hierarchy but owning
// fresh V-cycle scratch, so forks can Apply concurrently.
func (p *AMGPrec) forkScratch() Preconditioner {
	q := *p
	q.allocScratch()
	return &q
}

// coarsenPairwise aggregates the unknowns of a by greedy strongest-
// connection pairing and returns the level plus the Galerkin coarse
// operator PᵀAP. Each unvisited node pairs with its largest-|a_ij|
// unaggregated neighbor across an edge that rail-preserving aggregation
// allows; leftovers become singletons. An edge is banned when a_ij > 0
// or when it belongs to a triangle (i, j, p) that a positive a_ip or a_jp
// closes (see triangles). signed flags the rows of a with a positive
// off-diagonal, nil when there are none; the coarse operator's flags come
// back alongside it. A nil level signals that coarsening stalled:
// aggregation removed less than amgMinShrink of the unknowns.
func coarsenPairwise(a *CSR, signed []bool) (*amgLevel, *CSR, []bool, error) {
	n := a.N()
	invDiag := make([]float64, n)
	for i, d := range a.Diag() {
		if d <= 0 {
			return nil, nil, nil, fmt.Errorf("sparse: AMG: non-positive diagonal at row %d (value %g): %w", i, d, ErrNotPositiveDefinite)
		}
		invDiag[i] = 1 / d
	}
	var tri *triangles
	if signed != nil {
		tri = &triangles{a: a, signed: signed, mark: make([]int32, n)}
	}
	agg := make([]int32, n)
	for i := range agg {
		agg[i] = -1
	}
	nc := 0
	for i := 0; i < n; i++ {
		if agg[i] >= 0 {
			continue
		}
		// Candidates in order of strength until one is allowed.
		best, bestV := strongest(a, agg, i, math.Inf(1), -1)
		for tri != nil && best >= 0 && tri.banned(i, best) {
			best, bestV = strongest(a, agg, i, bestV, best)
		}
		agg[i] = int32(nc)
		if best >= 0 {
			agg[best] = int32(nc)
		}
		nc++
	}
	if float64(n-nc) < amgMinShrink*float64(n) {
		return nil, nil, nil, nil
	}
	lvl := &amgLevel{a: a, invDiag: invDiag, agg: agg, nc: nc}
	// Aggregate member lists (counting sort): ascending fine index within
	// each aggregate, the order the restriction gather sums in.
	lvl.aggPtr = make([]int32, nc+1)
	for _, g := range agg {
		lvl.aggPtr[g+1]++
	}
	for g := 0; g < nc; g++ {
		lvl.aggPtr[g+1] += lvl.aggPtr[g]
	}
	lvl.aggRows = make([]int32, n)
	next := make([]int32, nc)
	copy(next, lvl.aggPtr[:nc])
	for i, g := range agg {
		lvl.aggRows[next[g]] = int32(i)
		next[g]++
	}
	coarseA, coarseSigned := galerkinProduct(a, lvl, signed != nil)
	return lvl, coarseA, coarseSigned, nil
}

// positiveRows flags the rows of a that hold a positive off-diagonal, or
// returns nil when none does (an M-matrix). By symmetry the entries right
// of each diagonal find them all. The Galerkin operator of an M-matrix is
// one too, so only the finest level needs this scan; coarser levels take
// their flags from galerkinProduct.
func positiveRows(a *CSR) []bool {
	var signed []bool
	for i := 0; i < a.n; i++ {
		for k := a.rowPtr[i+1] - 1; k >= a.rowPtr[i] && int(a.col[k]) > i; k-- {
			if a.val[k] > 0 {
				if signed == nil {
					signed = make([]bool, a.n)
				}
				signed[i], signed[a.col[k]] = true, true
			}
		}
	}
	return signed
}

// strongest returns row i's unaggregated neighbor j of largest |a_ij|
// (the lowest column among ties) that ranks after (refV, refJ) in that
// order: |a_ij| < refV, or |a_ij| = refV and j > refJ. Positive couplings
// are never candidates. It returns −1 when no neighbor with a nonzero
// coupling is left.
func strongest(a *CSR, agg []int32, i int, refV float64, refJ int) (int, float64) {
	best, bestV := -1, 0.0
	for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
		j := int(a.col[k])
		if j == i || agg[j] >= 0 || a.val[k] > 0 {
			continue
		}
		if av := -a.val[k]; av > bestV && (av < refV || (av == refV && j > refJ)) {
			best, bestV = j, av
		}
	}
	return best, bestV
}

// triangles finds the edges of a matrix with positive off-diagonals that
// lie on a triangle (i, j, p) closed by a positive a_ip or a_jp: i and j
// share a neighbor p positively coupled to one of them. Aggregation must
// not pair across them; on a voltage-stacked PDN's finest level they are
// the converters' top–mid and bottom–mid couplings. The test is symmetric
// in i and j, and coarsenPairwise applies it, with the ban on positive
// couplings, on every level of the hierarchy.
//
// Pairing asks about node i's candidates in turn, so row i is marked once
// (mark[c] = 2i+2 where a_ic > 0, 2i+1 for the rest of row i; stamps grow
// with i, so the marker array is never cleared) and each question scans
// the candidate's row against the marks. Only pairs with an end on a
// positive coupling are tested at all: on a PDN's finest level, pairs
// that touch a converter's outer nodes.
type triangles struct {
	a      *CSR
	signed []bool  // row has a positive off-diagonal
	mark   []int32 // row stamps, see above
	marked int     // row whose stamps mark holds, plus one
}

// banned reports whether the edge between node i and its neighbor j lies
// on a triangle closed by a positive coupling.
func (t *triangles) banned(i, j int) bool {
	if !t.signed[i] && !t.signed[j] {
		return false
	}
	a, s := t.a, int32(2*i+1)
	if t.marked != i+1 {
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			if c := a.col[k]; int(c) != i && a.val[k] > 0 {
				t.mark[c] = s + 1
			} else {
				t.mark[c] = s
			}
		}
		t.marked = i + 1
	}
	for q := a.rowPtr[j]; q < a.rowPtr[j+1]; q++ {
		p := a.col[q]
		if m := t.mark[p]; m == s+1 || (m == s && a.val[q] > 0 && int(p) != j) {
			return true // a_ip > 0 or a_jp > 0, with p adjacent to both
		}
	}
	return false
}

// galerkinProduct computes the coarse operator PᵀAP for piecewise-constant
// P: entry (i,j,v) of A accumulates into coarse entry (agg[i], agg[j]).
// Coarse row I is assembled from exactly the fine rows of aggregate I with
// a sparse accumulator, in two passes (count, then fill) sharing one
// stamp-marked index. The accumulation order within a coarse row is fixed
// by the structure: member fine rows ascending, entries within each row
// ascending. Explicitly stored zeros of A are skipped, exactly as the
// historical Builder-based product dropped them. With flagSigned it also
// flags the coarse rows that hold a positive off-diagonal (see
// positiveRows), reading each row once it is accumulated.
func galerkinProduct(a *CSR, lvl *amgLevel, flagSigned bool) (*CSR, []bool) {
	nc := lvl.nc
	agg, aggPtr, aggRows := lvl.agg, lvl.aggPtr, lvl.aggRows
	rowPtr := make([]int, nc+1)
	markRow := make([]int32, nc)
	markPos := make([]int32, nc)
	for g := range markRow {
		markRow[g] = -1
	}
	// Pass 1: per-coarse-row unique-column counts.
	for bigI := 0; bigI < nc; bigI++ {
		count := 0
		for t := aggPtr[bigI]; t < aggPtr[bigI+1]; t++ {
			i := int(aggRows[t])
			for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
				if a.val[k] == 0 {
					continue
				}
				if bigJ := agg[a.col[k]]; markRow[bigJ] != int32(bigI) {
					markRow[bigJ] = int32(bigI)
					count++
				}
			}
		}
		rowPtr[bigI+1] = count
	}
	for g := 0; g < nc; g++ {
		rowPtr[g+1] += rowPtr[g]
	}
	col := make([]int32, rowPtr[nc])
	val := make([]float64, rowPtr[nc])
	var signed []bool
	if flagSigned {
		signed = make([]bool, nc)
	}
	// Pass 2: accumulate values in encounter order, then sort each row's
	// (col, val) pairs by column. Sorting moves fully accumulated values —
	// it cannot change any sum. markPos holds the absolute position of
	// coarse column J in the row being filled; a position below the row's
	// base is left over from an earlier row, so J is not in this one yet.
	for g := range markPos {
		markPos[g] = -1
	}
	for bigI := 0; bigI < nc; bigI++ {
		base := rowPtr[bigI]
		nrow := 0
		for t := aggPtr[bigI]; t < aggPtr[bigI+1]; t++ {
			i := int(aggRows[t])
			for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
				v := a.val[k]
				if v == 0 {
					continue
				}
				bigJ := agg[a.col[k]]
				if pos := int(markPos[bigJ]); pos >= base {
					val[pos] += v
				} else {
					markPos[bigJ] = int32(base + nrow)
					col[base+nrow] = bigJ
					val[base+nrow] = v
					nrow++
				}
			}
		}
		for t := base; signed != nil && t < base+nrow; t++ {
			if col[t] != int32(bigI) && val[t] > 0 {
				signed[bigI] = true
				break
			}
		}
		// Insertion sort by column; coarse rows are short (pairwise
		// aggregation roughly preserves row degree).
		for s := base + 1; s < base+nrow; s++ {
			c, v := col[s], val[s]
			t := s - 1
			for t >= base && col[t] > c {
				col[t+1], val[t+1] = col[t], val[t]
				t--
			}
			col[t+1], val[t+1] = c, v
		}
	}
	return &CSR{n: nc, rowPtr: rowPtr, col: col, val: val}, signed
}

// vcycle runs one V-cycle at level ell, solving A_ell x ≈ b from a zero
// initial guess. x is fully overwritten.
func (p *AMGPrec) vcycle(ell int, b, x []float64) {
	if ell == len(p.levels) {
		p.coarse.SolveTo(x, b)
		return
	}
	lvl := p.levels[ell]
	r := p.rs[ell]
	// Pre-smoothing: one weighted-Jacobi sweep from x = 0 is x = ωD⁻¹b.
	for i := range x {
		x[i] = amgOmega * lvl.invDiag[i] * b[i]
	}
	// Coarse-grid correction: restrict the residual (Pᵀr sums each
	// aggregate's entries), recurse, prolongate (P copies the aggregate
	// value to its members) and correct. Restriction gathers each
	// aggregate's members in ascending fine order — the same sums, in the
	// same order, as the historical scatter loop.
	lvl.a.MulVec(x, r)
	Sub(b, r, r)
	bc := p.bs[ell+1]
	aggPtr, aggRows := lvl.aggPtr, lvl.aggRows
	for g := range bc {
		var s float64
		for t := aggPtr[g]; t < aggPtr[g+1]; t++ {
			s += r[aggRows[t]]
		}
		bc[g] = s
	}
	xc := p.xs[ell+1]
	p.vcycle(ell+1, bc, xc)
	agg := lvl.agg
	for i := range x {
		x[i] += xc[agg[i]]
	}
	// Post-smoothing: one sweep x += ωD⁻¹(b − Ax).
	mKernelSmooth.Add(1)
	lvl.a.MulVec(x, r)
	for i := range x {
		x[i] += amgOmega * lvl.invDiag[i] * (b[i] - r[i])
	}
}

// Apply computes z = M⁻¹r as one symmetric V-cycle.
func (p *AMGPrec) Apply(r, z []float64) {
	p.vcycle(0, r, z)
}
