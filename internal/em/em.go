// Package em models electromigration-induced wearout of PDN conductors
// (C4 pads and TSVs) following the paper's Sec. 3.3:
//
//   - each conductor's mean time to failure follows Black's equation,
//     MTTF = A · J^(-n) · exp(Ea / kT);
//   - individual lifetimes are lognormally distributed around that median;
//   - a group of conductors (a pad or TSV array) fails when its first
//     member fails: P(t) = 1 − Π(1 − Fi(t)), and the reported
//     "expected EM-damage-free lifetime" is the t with P(t) = 0.5.
//
// Absolute lifetimes depend on foundry constants that are not public; as in
// the paper, results are meaningful as ratios (all figures are normalized),
// so the prefactor A only needs to be consistent across compared scenarios.
package em

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"voltstack/internal/units"
)

// BlackParams holds Black's-equation constants for one conductor class.
type BlackParams struct {
	A        float64 // technology prefactor (sets the absolute time scale)
	N        float64 // current-density exponent
	Ea       float64 // activation energy (eV)
	SigmaLog float64 // lognormal shape parameter σ of the failure distribution
	IRef     float64 // reference current (A) at which MTTF = A·exp(Ea/kT)
}

// DefaultC4 returns constants for solder C4 bumps. The current exponent is
// calibrated (n = 0.78) so that the normalized lifetime ratios of the
// paper's Fig. 5b are reproduced: an 8x off-chip current ratio between the
// regular and voltage-stacked PDN maps to the paper's ~5x lifetime gap.
// Published Black exponents for solder span roughly 0.5-2 depending on the
// failure mechanism; the value here is a fit to the paper's own results.
func DefaultC4() BlackParams {
	return BlackParams{A: 1, N: 0.78, Ea: 0.8, SigmaLog: 0.4, IRef: 50 * units.Milliampere}
}

// DefaultTSV returns constants for copper TSVs, with the current exponent
// calibrated (n = 0.9) to reproduce the normalized Fig. 5a ratios: the
// regular PDN's ~7x bottom-boundary current growth from 2 to 8 layers maps
// to the paper's ~84% lifetime degradation.
func DefaultTSV() BlackParams {
	return BlackParams{A: 1, N: 0.9, Ea: 0.9, SigmaLog: 0.4, IRef: 10 * units.Milliampere}
}

// Validate checks parameter sanity.
func (p BlackParams) Validate() error {
	switch {
	case p.A <= 0:
		return fmt.Errorf("em: prefactor A must be positive, got %g", p.A)
	case p.N <= 0:
		return fmt.Errorf("em: exponent N must be positive, got %g", p.N)
	case p.SigmaLog <= 0:
		return fmt.Errorf("em: SigmaLog must be positive, got %g", p.SigmaLog)
	case p.IRef <= 0:
		return fmt.Errorf("em: IRef must be positive, got %g", p.IRef)
	}
	return nil
}

// MTTF returns the median lifetime of a single conductor carrying |current|
// amperes at temperature tempK. A zero current yields +Inf (no EM stress).
func (p BlackParams) MTTF(current, tempK float64) float64 {
	i := math.Abs(current)
	if i == 0 {
		return math.Inf(1)
	}
	return p.A * math.Pow(i/p.IRef, -p.N) * math.Exp(p.Ea/(units.BoltzmannEV*tempK))
}

// LognormalCDF returns the probability that a conductor with median
// lifetime t50 and shape sigma has failed by time t.
func LognormalCDF(t, t50, sigma float64) float64 {
	if t <= 0 {
		return 0
	}
	if math.IsInf(t50, 1) {
		return 0
	}
	z := (math.Log(t) - math.Log(t50)) / sigma
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// Group models a population of conductors subject to EM wearout, e.g. the
// power-supply C4 pad array or a TSV array.
type Group struct {
	sigma float64
	t50s  []float64
	// logT50s holds ln t50 of the stressed (finite-median) conductors, in
	// insertion order. Unstressed conductors contribute log1p(−0) = −0 to
	// the log-survival sum, so leaving them out changes no bit of it.
	logT50s []float64
}

// NewGroup returns an empty group with lognormal shape sigma.
func NewGroup(sigma float64) *Group {
	if sigma <= 0 {
		panic(fmt.Sprintf("em: sigma must be positive, got %g", sigma))
	}
	return &Group{sigma: sigma}
}

// AddT50 adds a conductor by its median lifetime. Infinite medians
// (unstressed conductors) are accepted and never contribute to failure.
// A NaN median (e.g. from a diverged solve) is stored and reported by
// LifetimeAtProb as an ErrInvalidConductor.
func (g *Group) AddT50(t50 float64) {
	if t50 <= 0 {
		panic(fmt.Sprintf("em: t50 must be positive, got %g", t50))
	}
	g.t50s = append(g.t50s, t50)
	if !math.IsInf(t50, 1) {
		g.logT50s = append(g.logT50s, math.Log(t50))
	}
}

// AddConductor adds a conductor by its current and temperature using the
// given Black parameters.
func (g *Group) AddConductor(p BlackParams, current, tempK float64) {
	g.AddT50(p.MTTF(current, tempK))
}

// Len returns the number of conductors in the group.
func (g *Group) Len() int { return len(g.t50s) }

// FailureProb returns P(t) = 1 − Π(1 − Fi(t)), computed in log space so
// large groups do not underflow. Each Fi is LognormalCDF's arithmetic on
// the cached ln t50.
func (g *Group) FailureProb(t float64) float64 {
	if t <= 0 {
		return 0
	}
	lt := math.Log(t)
	var logSurvival float64
	for _, lt50 := range g.logT50s {
		z := (lt - lt50) / g.sigma
		f := 0.5 * math.Erfc(-z/math.Sqrt2)
		if f >= 1 {
			return 1
		}
		logSurvival += math.Log1p(-f)
	}
	return -math.Expm1(logSurvival)
}

// logSurvival returns s(u) = ln(1 − P(e^u)) = Σ log1p(−Fi) and its
// derivative ds/du = −Σ φ(zi) / (σ·(1 − Fi)), with zi = (u − ln t50,i)/σ.
// Fi is FailureProb's arithmetic; the derivative costs one exp more per
// conductor. Once some Fi rounds to 1 the survival has underflowed and
// s = −Inf is returned with a NaN derivative.
func (g *Group) logSurvival(u float64) (s, ds float64) {
	var hazard float64
	for _, lt50 := range g.logT50s {
		z := (u - lt50) / g.sigma
		f := 0.5 * math.Erfc(-z/math.Sqrt2)
		if f >= 1 {
			return math.Inf(-1), math.NaN()
		}
		s += math.Log1p(-f)
		hazard += math.Exp(-0.5*z*z) / (1 - f)
	}
	return s, -hazard / (g.sigma * math.Sqrt(2*math.Pi))
}

// ErrEmptyGroup is returned when a lifetime is requested for a group with
// no stressed conductors.
var ErrEmptyGroup = errors.New("em: group has no conductors under EM stress")

// ErrInvalidConductor is returned by LifetimeAtProb when a conductor's
// median lifetime is NaN, e.g. because the current it was derived from
// came out of a diverged solve.
type ErrInvalidConductor struct {
	Index int     // position of the conductor in insertion order
	T50   float64 // the offending median
}

func (e *ErrInvalidConductor) Error() string {
	return fmt.Sprintf("em: conductor %d has invalid median lifetime %g", e.Index, e.T50)
}

// MedianLifetime returns the expected EM-damage-free lifetime: the time at
// which the probability that at least one conductor has failed reaches 1/2.
func (g *Group) MedianLifetime() (float64, error) {
	return g.LifetimeAtProb(0.5)
}

// LifetimeAtProb returns the time at which the group failure probability
// reaches prob (0 < prob < 1). See lifetimeAt for the method.
func (g *Group) LifetimeAtProb(prob float64) (float64, error) {
	t, _, err := g.lifetimeAt(prob)
	return t, err
}

// lifetimeTol is the stopping width in u = ln t, ≈ ln(1 + 1e-12): the
// returned lifetime is resolved to a relative 1e-12 in t.
const lifetimeTol = 1e-12

// maxLifetimeEvals bounds lifetimeAt; it takes 11–14 evaluations for a
// median and, on rounding stairs near P = 1, a few dozen.
const maxLifetimeEvals = 200

// lifetimeAt solves h(u) = s(u) − ln(1 − prob) = 0 for u = ln t by a
// safeguarded Newton iteration and also returns the number of group
// evaluations it took.
//
// Each lognormal log-survival is concave in u, so h is concave and
// strictly decreasing: from a point right of the root (h ≤ 0) the Newton
// step moves left and, because h lies below its tangent, never crosses
// the root. The iteration starts where the weakest conductor alone has
// failed with probability prob, u0 = ln minT50 + σ·Φ⁻¹(prob) (ln minT50
// for the median); P ≥ prob there, so it descends monotonically onto the
// root. [lo, hi] brackets the root by the sign of h at every evaluated
// point. A Newton step that leaves the bracket, comes from a point where
// h is not finite (survival underflow), or follows a step that failed to
// halve |h| (a rounding stair, where Fi is within ~1e-9 of 1) is replaced
// by a bisection step, or while the bracket is still open by a step twice
// the last one toward the open side. The iteration stops once a step or
// the bracket is narrower than lifetimeTol.
func (g *Group) lifetimeAt(prob float64) (t float64, evals int, err error) {
	if !(prob > 0 && prob < 1) {
		return 0, 0, fmt.Errorf("em: probability must be in (0,1), got %g", prob)
	}
	minT50 := math.Inf(1)
	for i, t50 := range g.t50s {
		if math.IsNaN(t50) {
			return 0, 0, &ErrInvalidConductor{Index: i, T50: t50}
		}
		minT50 = math.Min(minT50, t50)
	}
	if math.IsInf(minT50, 1) {
		return 0, 0, ErrEmptyGroup
	}

	target := math.Log1p(-prob)
	z0 := -math.Sqrt2 * math.Erfcinv(2*prob)
	if math.IsInf(z0, -1) {
		// Erfcinv loses the far tail (prob below ~1e-17); use the
		// asymptote of ln Φ(z) = ln φ(z) − ln|z| there. It may start a hair
		// left of the root, which the first Newton step crosses back.
		l := -2 * math.Log(prob)
		z0 = -math.Sqrt(l - math.Log(2*math.Pi*l))
	}
	u := math.Log(minT50) + g.sigma*z0
	lo, hi := math.Inf(-1), math.Inf(1)
	// step is the length of the last step; σ/2 makes the first step
	// toward an open side one σ long.
	step, prevAbsH := g.sigma/2, math.Inf(1)
	for evals < maxLifetimeEvals {
		s, ds := g.logSurvival(u)
		evals++
		h := s - target
		if h > 0 {
			lo = u
		} else {
			hi = u
		}
		next := u - h/ds
		if !(next >= lo && next <= hi) || math.Abs(h) > prevAbsH/2 {
			switch {
			case math.IsInf(lo, -1):
				next = hi - 2*step
			case math.IsInf(hi, 1):
				next = lo + 2*step
			default:
				next = lo + (hi-lo)/2
			}
		}
		step, prevAbsH = math.Abs(next-u), math.Abs(h)
		if step <= lifetimeTol || hi-lo <= lifetimeTol {
			if t = math.Exp(next); math.IsInf(t, 1) {
				return 0, evals, fmt.Errorf("em: lifetime e^%g overflows", next)
			}
			return t, evals, nil
		}
		u = next
	}
	return 0, evals, fmt.Errorf("em: lifetime search for P = %g did not converge in %d evaluations", prob, evals)
}

// WeakestT50 returns the smallest single-conductor median in the group.
func (g *Group) WeakestT50() float64 {
	m := math.Inf(1)
	for _, t := range g.t50s {
		if t < m {
			m = t
		}
	}
	return m
}

// Quantiles returns the q-quantiles of the per-conductor medians (for
// reporting current-distribution spreads). qs must be in (0,1).
func (g *Group) Quantiles(qs ...float64) []float64 {
	sorted := append([]float64(nil), g.t50s...)
	sort.Float64s(sorted)
	out := make([]float64, len(qs))
	for i, q := range qs {
		if len(sorted) == 0 {
			out[i] = math.NaN()
			continue
		}
		idx := q * float64(len(sorted)-1)
		lo := int(math.Floor(idx))
		hi := int(math.Ceil(idx))
		out[i] = units.Lerp(sorted[lo], sorted[hi], idx-float64(lo))
	}
	return out
}
