package main

import (
	"embed"
	"fmt"
	"io/fs"
	"regexp"
	"strconv"
	"strings"
)

//go:embed testdata/refs
var refFS embed.FS

// loadRefs reads the default-seed reference output of every batch driver
// (written by -write-refs).
func loadRefs() (map[string]string, error) {
	out := map[string]string{}
	for _, name := range batchDriverNames() {
		b, err := fs.ReadFile(refFS, "testdata/refs/"+name+".txt")
		if err != nil {
			return nil, err
		}
		out[name] = string(b)
	}
	return out, nil
}

// claim is a headline number the ROADMAP pins, read from the headlines
// driver's rendered output, with the range it must fall in. None depends
// on the seed.
type claim struct {
	what   string
	re     *regexp.Regexp // the first submatch is the number
	lo, hi float64
}

var headlineClaims = []claim{
	{"C4 lifetime gap V-S vs. regular at 8 layers (4.8x)",
		regexp.MustCompile(`C4 lifetime gap V-S vs\. regular at 8 layers: ([0-9.]+)x`), 4.6, 5.0},
	{"regular Few-TSV lifetime lost 2->8 layers (81%)",
		regexp.MustCompile(`regular Few-TSV lifetime lost 2->8 layers: +([0-9.]+)%`), 78, 84},
	{"V-S excess IR drop at 65% imbalance (0.77% Vdd)",
		regexp.MustCompile(`V-S excess IR drop at 65% imbalance: +([0-9.]+)% Vdd`), 0.72, 0.82},
	{"equal-area crossover imbalance (~55%)",
		regexp.MustCompile(`V-S beats equal-area regular PDN below: +([0-9.]+)% imbalance`), 50, 60},
}

// fig5aRow matches one Fig. 5a series row: label and the 2/4/6/8-layer
// values.
var fig5aRow = regexp.MustCompile(`(?m)^  (.+?) {2,}([0-9.]+) +([0-9.]+) +([0-9.]+) +([0-9.]+)$`)

// emmcGap matches the closed-form vs. Monte Carlo gap of one array.
var emmcGap = regexp.MustCompile(`\(gap ([0-9.]+)%\)`)

// traceDroop matches the trace study's droop percentiles.
var traceDroop = regexp.MustCompile(`p50 ([0-9.]+)%, p95 ([0-9.]+)%, max ([0-9.]+)% Vdd`)

// checkOutput checks one driver's rendered output. At the default seed it
// must equal the stored reference byte for byte. At any other seed it
// must keep the reference's title line and line count, and hold the
// pinned claims and the driver's own invariants within tolerance.
func checkOutput(name, out string, seed int64, refs map[string]string) error {
	if seed == defaultSeed {
		if out != refs[name] {
			return fmt.Errorf("output differs from the default-seed reference")
		}
		return nil
	}
	refLines := strings.Split(refs[name], "\n")
	lines := strings.Split(out, "\n")
	if len(lines) != len(refLines) || lines[0] != refLines[0] {
		return fmt.Errorf("output shape differs from the reference (%d lines, title %q)", len(lines), lines[0])
	}
	switch name {
	case "headlines":
		for _, c := range headlineClaims {
			v, err := number(c.re, out, c.what)
			if err != nil {
				return err
			}
			if v < c.lo || v > c.hi {
				return fmt.Errorf("%s: %g outside [%g, %g]", c.what, v, c.lo, c.hi)
			}
		}
	case "fig5a":
		// V-S over regular Few-TSV lifetime at 8 layers: 4.1x.
		rows := map[string]float64{}
		for _, m := range fig5aRow.FindAllStringSubmatch(out, -1) {
			rows[strings.TrimSpace(m[1])], _ = strconv.ParseFloat(m[5], 64)
		}
		vs, reg := rows["V-S PDN, Few TSV"], rows["Reg. PDN, Few TSV"]
		if gap, ok := ratio(vs, reg); !ok || gap < 3.8 || gap > 4.4 {
			return fmt.Errorf("V-S over regular Few-TSV lifetime at 8 layers (4.1x): %g/%g outside [3.8, 4.4]", vs, reg)
		}
	case "ext-em-mc":
		// The Monte Carlo estimate must agree with the closed form.
		gaps := emmcGap.FindAllStringSubmatch(out, -1)
		if len(gaps) != 2 {
			return fmt.Errorf("closed-form vs. Monte Carlo gaps: found %d, want 2", len(gaps))
		}
		for _, g := range gaps {
			if v, _ := strconv.ParseFloat(g[1], 64); v > 5 {
				return fmt.Errorf("closed-form vs. Monte Carlo gap %g%% above 5%%", v)
			}
		}
	case "ext-trace-noise":
		// Droop percentiles are ordered, and the regular PDN's worst-case
		// line does not depend on the trace.
		m := traceDroop.FindStringSubmatch(out)
		if m == nil {
			return fmt.Errorf("droop percentiles not found")
		}
		p50, _ := strconv.ParseFloat(m[1], 64)
		p95, _ := strconv.ParseFloat(m[2], 64)
		mx, _ := strconv.ParseFloat(m[3], 64)
		if !(0 < p50 && p50 <= p95 && p95 <= mx) {
			return fmt.Errorf("droop percentiles out of order: p50 %g, p95 %g, max %g", p50, p95, mx)
		}
		if want := refLines[3]; !strings.HasPrefix(want, "  regular Dense worst case: ") ||
			!strings.HasPrefix(lines[3], strings.SplitAfter(want, "Vdd")[0]) {
			return fmt.Errorf("regular Dense worst case changed: %q", lines[3])
		}
	}
	return nil
}

// number reads the first submatch of re in s as a float.
func number(re *regexp.Regexp, s, what string) (float64, error) {
	m := re.FindStringSubmatch(s)
	if m == nil {
		return 0, fmt.Errorf("%s: not found", what)
	}
	return strconv.ParseFloat(m[1], 64)
}
