package em

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"voltstack/internal/units"
)

func TestBlackEquationScaling(t *testing.T) {
	p := DefaultC4()
	tK := units.CelsiusToKelvin(85)
	t1 := p.MTTF(0.05, tK)
	t2 := p.MTTF(0.10, tK)
	// Doubling current divides MTTF by 2^n.
	want := t1 / math.Pow(2, p.N)
	if !units.WithinRel(t2, want, 1e-9) {
		t.Errorf("MTTF(2I) = %g, want %g", t2, want)
	}
}

func TestBlackTemperatureAcceleration(t *testing.T) {
	p := DefaultTSV()
	cold := p.MTTF(0.01, units.CelsiusToKelvin(60))
	hot := p.MTTF(0.01, units.CelsiusToKelvin(100))
	if hot >= cold {
		t.Errorf("hotter conductor must fail sooner: %g vs %g", hot, cold)
	}
	// Arrhenius ratio check.
	k := units.BoltzmannEV
	want := math.Exp(p.Ea/(k*units.CelsiusToKelvin(60))) / math.Exp(p.Ea/(k*units.CelsiusToKelvin(100)))
	if !units.WithinRel(cold/hot, want, 1e-9) {
		t.Errorf("acceleration factor = %g, want %g", cold/hot, want)
	}
}

func TestZeroCurrentNeverFails(t *testing.T) {
	p := DefaultC4()
	if !math.IsInf(p.MTTF(0, 358), 1) {
		t.Error("zero current should give infinite MTTF")
	}
}

func TestNegativeCurrentUsesMagnitude(t *testing.T) {
	p := DefaultC4()
	if p.MTTF(-0.05, 358) != p.MTTF(0.05, 358) {
		t.Error("MTTF must depend on |I|")
	}
}

func TestLognormalCDFBasics(t *testing.T) {
	if got := LognormalCDF(100, 100, 0.4); !units.ApproxEqual(got, 0.5, 1e-12, 1e-12) {
		t.Errorf("CDF at median = %g, want 0.5", got)
	}
	if LognormalCDF(0, 100, 0.4) != 0 {
		t.Error("CDF at t=0 must be 0")
	}
	if LognormalCDF(-5, 100, 0.4) != 0 {
		t.Error("CDF at negative t must be 0")
	}
	if LognormalCDF(50, math.Inf(1), 0.4) != 0 {
		t.Error("infinite median never fails")
	}
	if lo, hi := LognormalCDF(10, 100, 0.4), LognormalCDF(1000, 100, 0.4); lo >= 0.5 || hi <= 0.5 {
		t.Errorf("CDF not ordered around the median: %g, %g", lo, hi)
	}
}

func TestLognormalCDFMonotone(t *testing.T) {
	f := func(aRaw, bRaw float64) bool {
		a := 1 + math.Abs(math.Mod(aRaw, 1000))
		b := 1 + math.Abs(math.Mod(bRaw, 1000))
		if a > b {
			a, b = b, a
		}
		return LognormalCDF(a, 100, 0.4) <= LognormalCDF(b, 100, 0.4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSingleConductorGroupMedianIsT50(t *testing.T) {
	g := NewGroup(0.4)
	g.AddT50(1234)
	life, err := g.MedianLifetime()
	if err != nil {
		t.Fatal(err)
	}
	if !units.WithinRel(life, 1234, 1e-6) {
		t.Errorf("single-conductor lifetime = %g, want 1234", life)
	}
}

func TestGroupWeakestLinkEffect(t *testing.T) {
	// A group of identical conductors fails strictly earlier than any one
	// of them, and larger groups fail earlier than smaller ones.
	lifeFor := func(n int) float64 {
		g := NewGroup(0.4)
		for i := 0; i < n; i++ {
			g.AddT50(1000)
		}
		life, err := g.MedianLifetime()
		if err != nil {
			t.Fatal(err)
		}
		return life
	}
	l1, l10, l100 := lifeFor(1), lifeFor(10), lifeFor(100)
	if !(l100 < l10 && l10 < l1) {
		t.Errorf("weakest-link ordering violated: %g, %g, %g", l1, l10, l100)
	}
	if l1 <= 999 || l1 >= 1001 {
		t.Errorf("single conductor = %g, want ~1000", l1)
	}
}

func TestGroupIdenticalConductorsAnalytic(t *testing.T) {
	// For n identical conductors, P(t) = 1-(1-F(t))^n = 0.5 at
	// F = 1 - 0.5^(1/n); invert the lognormal for the exact answer.
	const n = 64
	const t50 = 1000.0
	const sigma = 0.4
	g := NewGroup(sigma)
	for i := 0; i < n; i++ {
		g.AddT50(t50)
	}
	life, err := g.MedianLifetime()
	if err != nil {
		t.Fatal(err)
	}
	fTarget := 1 - math.Pow(0.5, 1.0/n)
	// Invert Φ via bisection on the standard normal.
	lo, hi := -10.0, 10.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if 0.5*math.Erfc(-mid/math.Sqrt2) < fTarget {
			lo = mid
		} else {
			hi = mid
		}
	}
	want := t50 * math.Exp(sigma*(lo+hi)/2)
	if !units.WithinRel(life, want, 1e-4) {
		t.Errorf("group lifetime = %g, want %g", life, want)
	}
}

func TestGroupDominatedByWeakest(t *testing.T) {
	g := NewGroup(0.4)
	g.AddT50(100)
	for i := 0; i < 50; i++ {
		g.AddT50(1e6)
	}
	life, err := g.MedianLifetime()
	if err != nil {
		t.Fatal(err)
	}
	if !units.WithinRel(life, 100, 0.01) {
		t.Errorf("lifetime = %g, should be dominated by the weak conductor at 100", life)
	}
}

func TestGroupIgnoresUnstressed(t *testing.T) {
	g := NewGroup(0.4)
	g.AddT50(500)
	g.AddT50(math.Inf(1))
	g.AddT50(math.Inf(1))
	life, err := g.MedianLifetime()
	if err != nil {
		t.Fatal(err)
	}
	if !units.WithinRel(life, 500, 1e-6) {
		t.Errorf("lifetime = %g, want 500", life)
	}
}

func TestEmptyGroupError(t *testing.T) {
	g := NewGroup(0.4)
	if _, err := g.MedianLifetime(); err == nil {
		t.Error("empty group should error")
	}
	g.AddT50(math.Inf(1))
	if _, err := g.MedianLifetime(); err == nil {
		t.Error("group with only unstressed conductors should error")
	}
}

func TestFailureProbMonotoneAndBounded(t *testing.T) {
	g := NewGroup(0.4)
	for _, t50 := range []float64{100, 300, 1000, 5000} {
		g.AddT50(t50)
	}
	prev := -1.0
	for _, tt := range []float64{1, 10, 50, 100, 500, 1000, 1e4, 1e6} {
		p := g.FailureProb(tt)
		if p < 0 || p > 1 {
			t.Errorf("P(%g) = %g out of [0,1]", tt, p)
		}
		if p < prev {
			t.Errorf("P not monotone at %g", tt)
		}
		prev = p
	}
	if p := g.FailureProb(1e9); p < 0.999999 {
		t.Errorf("P(∞) = %g, want →1", p)
	}
}

func TestLargeGroupNoUnderflow(t *testing.T) {
	// 100k conductors with tiny individual failure probabilities: the
	// log-space product must not lose the aggregate hazard.
	g := NewGroup(0.4)
	for i := 0; i < 100000; i++ {
		g.AddT50(1e6)
	}
	p := g.FailureProb(1e4) // each Fi is tiny here
	if p <= 0 {
		t.Error("aggregate failure probability lost to underflow")
	}
	life, err := g.MedianLifetime()
	if err != nil {
		t.Fatal(err)
	}
	if life >= 1e6 || life <= 0 {
		t.Errorf("lifetime = %g, must be well below the common median", life)
	}
}

func TestLifetimeAtProbOrdering(t *testing.T) {
	g := NewGroup(0.4)
	for _, t50 := range []float64{200, 400, 800} {
		g.AddT50(t50)
	}
	t10, err := g.LifetimeAtProb(0.1)
	if err != nil {
		t.Fatal(err)
	}
	t90, err := g.LifetimeAtProb(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if t10 >= t90 {
		t.Errorf("quantile ordering violated: %g >= %g", t10, t90)
	}
	if _, err := g.LifetimeAtProb(0); err == nil {
		t.Error("prob=0 should be rejected")
	}
	if _, err := g.LifetimeAtProb(1); err == nil {
		t.Error("prob=1 should be rejected")
	}
}

func TestHigherCurrentShortensGroupLifetime(t *testing.T) {
	p := DefaultTSV()
	tK := units.CelsiusToKelvin(85)
	build := func(i float64) float64 {
		g := NewGroup(p.SigmaLog)
		for k := 0; k < 32; k++ {
			g.AddConductor(p, i, tK)
		}
		life, err := g.MedianLifetime()
		if err != nil {
			t.Fatal(err)
		}
		return life
	}
	if lo, hi := build(0.02), build(0.005); lo >= hi {
		t.Errorf("4x current should shorten lifetime: %g vs %g", lo, hi)
	}
}

func TestLifetimeRatioFollowsBlackExponent(t *testing.T) {
	// For two identical arrays at currents I and r·I, the group lifetime
	// ratio must be exactly r^n (σ and the group structure cancel).
	p := DefaultC4()
	tK := 358.0
	ratio := 3.0
	build := func(i float64) float64 {
		g := NewGroup(p.SigmaLog)
		for k := 0; k < 64; k++ {
			g.AddConductor(p, i, tK)
		}
		life, err := g.MedianLifetime()
		if err != nil {
			t.Fatal(err)
		}
		return life
	}
	got := build(0.01) / build(0.01*ratio)
	want := math.Pow(ratio, p.N)
	if !units.WithinRel(got, want, 1e-3) {
		t.Errorf("lifetime ratio = %g, want %g", got, want)
	}
}

func TestQuantiles(t *testing.T) {
	g := NewGroup(0.4)
	for _, v := range []float64{10, 20, 30, 40, 50} {
		g.AddT50(v)
	}
	qs := g.Quantiles(0, 0.5, 1)
	if qs[0] != 10 || qs[1] != 30 || qs[2] != 50 {
		t.Errorf("quantiles = %v", qs)
	}
}

func TestValidateBlackParams(t *testing.T) {
	good := DefaultC4()
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	bad := good
	bad.N = 0
	if err := bad.Validate(); err == nil {
		t.Error("N=0 not caught")
	}
	bad = good
	bad.SigmaLog = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative sigma not caught")
	}
}

// bisectLifetime is the bisection LifetimeAtProb used before the Newton
// iteration, kept as a reference and changed only to count its
// FailureProb passes: it brackets the root by factors of 4 from the
// weakest median, then bisects in log time down to a 1e-12 ratio.
func bisectLifetime(g *Group, prob float64) (t float64, evals int) {
	fp := func(t float64) float64 {
		evals++
		return g.FailureProb(t)
	}
	minT50 := g.WeakestT50()
	lo, hi := minT50, minT50
	for fp(lo) > prob {
		lo /= 4
	}
	for fp(hi) < prob {
		hi *= 4
	}
	for i := 0; i < 200 && hi/lo > 1+1e-12; i++ {
		mid := math.Sqrt(lo * hi)
		if fp(mid) < prob {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Sqrt(lo * hi), evals
}

// rootResolution returns the relative width in t within which rounding
// lets the computed group survival place the root at prob. Each Fi is
// rounded by about ε·Fi, which moves log1p(−Fi) by ε·Fi/(1−Fi), and
// comparing P with prob moves it by ε·prob/(1−prob); divided by the
// slope |d ln(1−P)/d ln t| this is a width in ln t. It is far below 1e-11
// unless some Fi or P at the root is within ~1e-5 of 1: at
// prob = 1 − 1e-9 it reaches ~1e-8, for the bisection reference as much
// as for the Newton iteration.
func rootResolution(g *Group, t, prob float64) float64 {
	noise := prob / (1 - prob)
	var slope float64
	for _, t50 := range g.t50s {
		if math.IsInf(t50, 1) {
			continue
		}
		z := (math.Log(t) - math.Log(t50)) / g.sigma
		f := LognormalCDF(t, t50, g.sigma)
		noise += f / (1 - f)
		slope += math.Exp(-z*z/2) / (1 - f) / (g.sigma * math.Sqrt(2*math.Pi))
	}
	return 0x1p-52 * noise / slope
}

// spreadGroup returns n conductors with medians log-uniform over
// [1e4, 1e4·spread]; every seventh is unstressed (+Inf).
func spreadGroup(n int, sigma, spread float64, seed int64) *Group {
	rng := rand.New(rand.NewSource(seed))
	g := NewGroup(sigma)
	for i := 0; i < n; i++ {
		if i%7 == 3 {
			g.AddT50(math.Inf(1))
			continue
		}
		g.AddT50(1e4 * math.Pow(spread, rng.Float64()))
	}
	return g
}

func TestLifetimeMatchesBisection(t *testing.T) {
	worst := 0.0
	for _, n := range []int{1, 2, 100, 12864} {
		for _, sigma := range []float64{0.1, 0.4, 1.0} {
			for _, spread := range []float64{1, 1e3, 1e6} {
				g := spreadGroup(n, sigma, spread, int64(n))
				for _, prob := range []float64{1e-9, 1e-3, 0.5, 0.9, 1 - 1e-9} {
					got, err := g.LifetimeAtProb(prob)
					if err != nil {
						t.Fatalf("n=%d σ=%g spread=%g P=%g: %v", n, sigma, spread, prob, err)
					}
					want, _ := bisectLifetime(g, prob)
					rel := math.Abs(got-want) / want
					tol := 1e-11 + 4*rootResolution(g, want, prob)
					if rel > tol {
						t.Errorf("n=%d σ=%g spread=%g P=%g: Newton %.17g, bisection %.17g (rel %.2g > %.2g)",
							n, sigma, spread, prob, got, want, rel, tol)
					}
					if prob <= 0.9 {
						worst = math.Max(worst, rel)
					}
				}
			}
		}
	}
	t.Logf("largest relative difference for P ≤ 0.9: %.2g", worst)
}

// TestMedianLifetimeEvaluationBudget pins the speedup without timing: a
// median over a 12864-conductor group (the ext-em-mc TSV count) takes at
// most 16 group evaluations. The bisection it replaced takes 44.
func TestMedianLifetimeEvaluationBudget(t *testing.T) {
	for _, spread := range []float64{1, 10, 1e6} {
		g := spreadGroup(12864, DefaultTSV().SigmaLog, spread, 1)
		_, evals, err := g.lifetimeAt(0.5)
		if err != nil {
			t.Fatal(err)
		}
		_, ref := bisectLifetime(g, 0.5)
		t.Logf("spread %g: %d evaluations (bisection %d)", spread, evals, ref)
		if evals > 16 {
			t.Errorf("spread %g: median took %d group evaluations, budget 16", spread, evals)
		}
	}
}

// TestLifetimeConvergesOnRoundingStairs covers P near 1, where Fi of the
// weakest conductor is within ~1e-15 of 1 and rounds in steps of 1.1e-16:
// the computed survival is a staircase, the Newton step on a flat stair
// stays ~1e-10 long however often it repeats, and only the stall rule
// gets the iteration off the stair.
func TestLifetimeConvergesOnRoundingStairs(t *testing.T) {
	const prob = 1 - 1e-15
	for _, n := range []int{1, 2, 100} {
		for _, sigma := range []float64{0.1, 0.4, 1.0} {
			g := spreadGroup(n, sigma, 1e6, 2)
			life, evals, err := g.lifetimeAt(prob)
			if err != nil {
				t.Fatalf("n=%d σ=%g: %v", n, sigma, err)
			}
			if d := math.Abs(g.FailureProb(life) - prob); d > 1e-9*prob {
				t.Errorf("n=%d σ=%g: FailureProb(%g) off by %g after %d evaluations", n, sigma, life, d, evals)
			}
		}
	}
}

func TestLifetimeRejectsNaNConductor(t *testing.T) {
	g := NewGroup(0.4)
	g.AddT50(100)
	g.AddT50(math.Inf(1))
	g.AddConductor(DefaultTSV(), math.NaN(), 358) // a diverged solve's current
	g.AddT50(200)
	_, err := g.MedianLifetime()
	var bad *ErrInvalidConductor
	if !errors.As(err, &bad) {
		t.Fatalf("err = %v, want *ErrInvalidConductor", err)
	}
	if bad.Index != 2 || !math.IsNaN(bad.T50) {
		t.Errorf("got conductor %d with median %g, want conductor 2 with NaN", bad.Index, bad.T50)
	}
}

// TestFailureProbMatchesLognormalCDF pins FailureProb's cached ln t50 to
// the per-conductor LognormalCDF arithmetic, bit for bit.
func TestFailureProbMatchesLognormalCDF(t *testing.T) {
	g := spreadGroup(500, 0.4, 1e3, 3)
	for _, tt := range []float64{-1, 0, 1, 5e3, 1e4, 3.3e4, 1e5, 1e7, math.Inf(1)} {
		var logSurvival float64
		want := math.NaN()
		for _, t50 := range g.t50s {
			f := LognormalCDF(tt, t50, g.sigma)
			if f >= 1 {
				want = 1
				break
			}
			logSurvival += math.Log1p(-f)
		}
		if math.IsNaN(want) {
			want = -math.Expm1(logSurvival)
		}
		if got := g.FailureProb(tt); got != want {
			t.Errorf("FailureProb(%g) = %v, per-conductor CDFs give %v", tt, got, want)
		}
	}
}

// FuzzLifetimeAtProb drives the Newton iteration with random groups,
// shapes and probabilities. It must return, without error, a t with
// |P(t) − prob| ≤ 1e-9·max(prob, 1−prob), and lifetimes must be monotone
// in prob up to the stopping width and the rounding resolution.
func FuzzLifetimeAtProb(f *testing.F) {
	f.Add(uint16(64), int64(1), 0.4, 6.0, 0.5, 0.9)
	f.Add(uint16(1), int64(2), 0.1, 0.0, 1e-9, 1-1e-9)
	f.Add(uint16(12864), int64(3), 1.0, 12.0, 1e-300, 0.999)
	f.Add(uint16(2), int64(4), 2.5, 3.0, 1-1e-15, 0.25)
	f.Fuzz(func(t *testing.T, n uint16, seed int64, sigma, decades, p1, p2 float64) {
		sigma = 0.05 + math.Mod(math.Abs(sigma), 3)
		decades = math.Mod(math.Abs(decades), 13)
		p1 = math.Mod(math.Abs(p1), 1)
		p2 = math.Mod(math.Abs(p2), 1)
		if math.IsNaN(sigma+decades+p1+p2) || p1 == 0 || p2 == 0 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		g := NewGroup(sigma)
		for i := 0; i < 1+int(n)%4096; i++ {
			if rng.Intn(8) == 0 {
				g.AddT50(math.Inf(1))
				continue
			}
			g.AddT50(math.Pow(10, decades*rng.Float64()))
		}
		if math.IsInf(g.WeakestT50(), 1) {
			t.Skip()
		}
		life := func(prob float64) float64 {
			tl, err := g.LifetimeAtProb(prob)
			if err != nil {
				t.Fatalf("P=%g: %v", prob, err)
			}
			if d := math.Abs(g.FailureProb(tl) - prob); d > 1e-9*math.Max(prob, 1-prob) {
				t.Fatalf("P=%g: FailureProb(%g) = %g, off by %g", prob, tl, g.FailureProb(tl), d)
			}
			return tl
		}
		t1, t2 := life(p1), life(p2)
		if p1 > p2 {
			p1, p2, t1, t2 = p2, p1, t2, t1
		}
		slack := 2e-12 + 4*math.Max(rootResolution(g, t1, p1), rootResolution(g, t2, p2))
		if t1 > t2*(1+slack) {
			t.Fatalf("not monotone: t(%g) = %.17g > t(%g) = %.17g", p1, t1, p2, t2)
		}
	})
}
