// Command perfbench is voltstack's end-to-end benchmark. It runs one of
// three workloads through the program's public entry points, checks every
// output, and prints each metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (BENCHMARK.json
// "end_to_end"); with -trace 1 the run is split into an untraced and a
// traced half, and the metrics are the per-layer ones ("per_layer").
//
// Usage (from the repository root; run.sh builds this binary and the
// vsserved daemon first):
//
//	bash perfbench/run.sh --workload paper-figs --seed 1 --seconds 20 --trace 0
//
// --workload all runs every workload in turn, each with its own report
// and result line.
//
// See perfbench/README.md for the workloads and what each metric means.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"voltstack/internal/core"
	"voltstack/internal/parallel"
	"voltstack/internal/telemetry"
)

// defaultSeed is the seed whose rendered driver outputs are stored under
// testdata/refs and compared byte for byte. It is core.NewStudy's seed.
const defaultSeed = 1

// buildDir holds run.sh's build outputs (the vsserved binary among them)
// and a traced run's Chrome trace, relative to the repository root the
// benchmark runs from.
const buildDir = ".bench_build"

// setupProbes is how many extra times a run measures setup_s; the
// reported value is the median.
const setupProbes = 15

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all of them in turn")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "input seed")
	fs.IntVar(&o.seconds, "seconds", 20, "seconds to measure for")
	fs.IntVar(&o.trace, "trace", 0, "1: split the run into an untraced and a traced half and report per-layer metrics")
	refsDir := fs.String("write-refs", "", "write the default-seed reference outputs of the batch workloads to this directory and exit")
	probe := fs.Bool("setup-probe", false, "internal: set up as a batch run would, print ready and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *probe {
		return setupProbe(stdout)
	}
	if *refsDir != "" {
		if err := writeRefs(*refsDir); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames()
	}
	switch {
	case o.workload != "all" && workloads[o.workload] == nil:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have: all, %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	case o.seconds < 1:
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1")
		return 2
	case o.trace != 0 && o.trace != 1:
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}

	for _, name := range names {
		res, err := workloads[name](o, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		res.machine = stampMachine()
		if err := res.print(stdout, o.trace == 1); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	return 0
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options, io.Writer) (*result, error){
	"paper-figs":   func(o options, log io.Writer) (*result, error) { return runBatch(paperFigs, o, log) },
	"many-rhs":     func(o options, log io.Writer) (*result, error) { return runBatch(manyRHS, o, log) },
	"served-sweep": runServed,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// setupProbe is the child side of a batch setup_s measurement: it does
// what a batch run does before its first experiment can start, then
// reports ready. The parent times process start to that line.
func setupProbe(stdout io.Writer) int {
	s := core.NewStudy()
	pool := parallel.NewPool(0)
	if s.Chip == nil || pool.Workers() < 1 || len(core.ExperimentNames()) == 0 {
		return 1
	}
	fmt.Fprintln(stdout, "ready")
	return 0
}

// measureBatchSetup spawns this binary in setup-probe mode setupProbes
// times and returns each start-to-ready time in seconds.
func measureBatchSetup() ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(self, "-setup-probe")
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(pipe).ReadString('\n')
		dt := time.Since(t0).Seconds()
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		if rerr != nil || line != "ready\n" {
			return nil, fmt.Errorf("setup probe: unexpected output %q", line)
		}
		out = append(out, dt)
	}
	return out, nil
}

// machine records where a result was measured.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Build      string `json:"build"`
}

func stampMachine() machine {
	m := machine{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown (not built from a git checkout)",
		Build:      telemetry.BuildStamp(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	return m
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything a workload run reports.
type result struct {
	workload  string
	attempted int
	failed    int
	failures  []string
	e2e       map[string]float64
	layers    map[string]metric
	missing   []string // per-layer ratios whose base was zero
	notes     []string // extra report lines (sample counts, shares)
	machine   machine
}

func newResult(workload string) *result {
	return &result{workload: workload, layers: map[string]metric{}}
}

// setEndToEnd sets the end-to-end metrics from per-pass samples and job
// latencies, and returns the percentile job_tail_s reports.
func (r *result) setEndToEnd(setup, walls, cpus, allocs, rss, jobs []float64) float64 {
	tailV, tailP := tail(jobs)
	r.e2e = map[string]float64{
		"setup_s":     median(setup),
		"pass_s":      median(walls),
		"cpu_s":       median(cpus),
		"alloc_mb":    median(allocs),
		"rss_peak_mb": median(rss),
		"job_p50_s":   median(jobs),
		"job_tail_s":  tailV,
	}
	return tailP
}

// fail records one failed output.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// print writes the human-readable report, the machine stamp and the
// result line.
func (r *result) print(w io.Writer, traced bool) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "workload %s: %d outputs checked, %d failed\n", r.workload, r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintln(bw, "  FAIL", f)
	}
	if r.attempted > 0 {
		fmt.Fprintf(bw, "  %-36s %14.6g %s\n", "failed_frac", float64(r.failed)/float64(r.attempted), "ratio")
	}
	metrics := r.layers
	if !traced {
		metrics = map[string]metric{}
		for _, s := range endToEnd {
			metrics[s.name] = metric{r.e2e[s.name], s.unit}
		}
	}
	for _, n := range sortedKeys(metrics) {
		fmt.Fprintf(bw, "  %-36s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	if traced {
		for _, n := range r.missing {
			fmt.Fprintf(bw, "  %-36s %14s (zero base)\n", n, "missing")
		}
	}
	for _, n := range r.notes {
		fmt.Fprintln(bw, "  "+n)
	}
	stamp, err := json.Marshal(map[string]machine{"machine": r.machine})
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", stamp)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", line)
	return bw.Flush()
}

func sortedKeys[T any](m map[string]T) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
