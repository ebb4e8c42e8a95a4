package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// metricName is the shape every reported metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

func TestGenJobsDeterministicPerSeed(t *testing.T) {
	a, b := genJobs(5, jobsPerPass), genJobs(5, jobsPerPass)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different job sequences")
	}
	if reflect.DeepEqual(a, genJobs(6, jobsPerPass)) {
		t.Fatal("different seeds gave the same job sequence")
	}
	seen := map[string]bool{}
	for i, j := range a {
		k, _ := json.Marshal(j)
		if seen[string(k)] {
			t.Fatalf("job %d repeats an earlier request, so the whole-job cache would answer it", i)
		}
		seen[string(k)] = true
	}
}

func TestGenJobsRepeatAboutHalfTheirPoints(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		share, points := repeatedShare(genJobs(seed, jobsPerPass))
		if points != 6*jobsPerPass {
			t.Fatalf("seed %d: %d design points, want %d", seed, points, 6*jobsPerPass)
		}
		if share < 0.4 || share > 0.5 {
			t.Errorf("seed %d: repeated share %.3f, want about half", seed, share)
		}
	}
}

// TestMetricNames pins the name and unit shapes and that the code's
// metric lists match BENCHMARK.json.
func TestMetricNames(t *testing.T) {
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	all := append(append(append([]spec(nil), endToEnd...), perLayer...), derived...)
	for _, s := range all {
		if !metricName.MatchString(s.name) || len(s.name) > 64 {
			t.Errorf("metric name %q does not match %s", s.name, metricName)
		}
		if !unit.MatchString(s.unit) {
			t.Errorf("metric %s: bad unit %q", s.name, s.unit)
		}
		if seen[s.name] {
			t.Errorf("metric name %q used twice", s.name)
		}
		seen[s.name] = true
	}

	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []spec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s [%s], code %s [%s]", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
}

func TestZeroBaseRatioIsMissing(t *testing.T) {
	if _, ok := ratio(3, 0); ok {
		t.Fatal("ratio with a zero base reported a value")
	}
	if v, ok := ratio(3, 2); !ok || v != 1.5 {
		t.Fatalf("ratio(3, 2) = %g, %v", v, ok)
	}
	// A pass with no PCG solves, no refactors and no cache lookups: every
	// ratio over them is missing, not 0 or NaN.
	lm := programLayers(map[string]float64{"parallel_batch_occupancy_sum": 1.5, "parallel_batch_occupancy_count": 2})
	for _, n := range []string{"sparse.iterations_per_solve", "sparse.solves_per_refactor", "rescache.hit_ratio"} {
		if v, ok := lm[n]; ok {
			t.Errorf("%s = %g with a zero base, want missing", n, v)
		}
	}
	if lm["parallel.occupancy"] != 0.75 {
		t.Errorf("parallel.occupancy = %g, want 0.75", lm["parallel.occupancy"])
	}

	r := newResult("test")
	r.attempted = 1
	ls := layerSamples{}
	ls.add(lm)
	ls.finish(r)
	if !contains(r.missing, "sparse.iterations_per_solve") {
		t.Errorf("missing = %v, want sparse.iterations_per_solve listed", r.missing)
	}
	var out bytes.Buffer
	if err := r.print(&out, true); err != nil {
		t.Fatal(err)
	}
	last := lastLine(out.String())
	if strings.Contains(last, "iterations_per_solve") || strings.Contains(last, "NaN") {
		t.Errorf("result line carries a zero-base ratio: %s", last)
	}
	if !strings.Contains(out.String(), "sparse.iterations_per_solve") || !strings.Contains(out.String(), "missing") {
		t.Errorf("report does not mark the ratio missing:\n%s", out.String())
	}
}

func TestReferencesPassTheirOwnChecks(t *testing.T) {
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	for name, out := range refs {
		if err := checkOutput(name, out, defaultSeed, refs); err != nil {
			t.Errorf("%s at the default seed: %v", name, err)
		}
		// Other seeds check claims and invariants, which the default-seed
		// outputs hold too.
		if err := checkOutput(name, out, defaultSeed+1, refs); err != nil {
			t.Errorf("%s at another seed: %v", name, err)
		}
	}
}

func TestCorruptedReferenceCountsAsFailure(t *testing.T) {
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	good := refs["fig5a"]
	refs["fig5a"] = strings.Replace(good, "0.24", "0.25", 1)
	if err := checkOutput("fig5a", good, defaultSeed, refs); err == nil {
		t.Fatal("output matched a corrupted reference")
	}

	// At another seed a moved claim fails.
	bad := strings.Replace(refs["headlines"], "0.77% Vdd", "0.95% Vdd", 1)
	if err := checkOutput("headlines", bad, defaultSeed+1, refs); err == nil {
		t.Fatal("headline claim outside its tolerance passed")
	}

	r := newResult("test")
	r.attempted = 2
	r.fail("fig5a: %v", checkOutput("fig5a", good, defaultSeed, refs))
	var out bytes.Buffer
	if err := r.print(&out, false); err != nil {
		t.Fatal(err)
	}
	var line struct {
		Correct           bool
		Attempted, Failed int
	}
	if err := json.Unmarshal([]byte(lastLine(out.String())), &line); err != nil {
		t.Fatal(err)
	}
	if line.Correct || line.Failed != 1 || line.Attempted != 2 {
		t.Fatalf("result line %+v, want correct=false failed=1 attempted=2", line)
	}
}

func TestTail(t *testing.T) {
	few := []float64{3, 1, 2}
	if v, p := tail(few); v != 3 || p != 100 {
		t.Errorf("tail of 3 samples = %g at p%g, want the maximum at p100", v, p)
	}
	var many []float64
	for i := 1; i <= 100; i++ {
		many = append(many, float64(i))
	}
	if v, p := tail(many); v != 90 || p != 90 {
		t.Errorf("tail of 1..100 = %g at p%g, want 90 at p90", v, p)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestCoveredCountsOverlapOnce(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	spans := []span{
		{start: at(1), end: at(3)},
		{start: at(2), end: at(4)}, // overlaps the first
		{start: at(6), end: at(7)},
		{start: at(9), end: at(12)}, // runs past the window
	}
	if got := covered(spans, at(0), at(10)); math.Abs(got-5) > 1e-9 {
		t.Fatalf("covered = %g s, want 5", got)
	}
}

func TestPromValues(t *testing.T) {
	text := "# TYPE a_total counter\na_total 7\n# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_sum 1.25\nh_count 3\n"
	got, err := promValues(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"a_total": 7, "h_sum": 1.25, "h_count": 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("promValues = %v, want %v", got, want)
	}
	if n, err := totalAllocFrom("heap profile\n# Alloc = 5\n# TotalAlloc = 12345\n"); err != nil || n != 12345 {
		t.Fatalf("totalAllocFrom = %d, %v", n, err)
	}
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}
