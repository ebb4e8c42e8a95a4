package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"voltstack/internal/core"
	"voltstack/internal/parallel"
	"voltstack/internal/telemetry"
)

// Step counts of the many-rhs drivers. The registry runs ext-decap-split
// at 1200 steps (about a minute on a 2-core machine) and ext-trace-noise
// at 100; these keep one pass near the paper-figs pass while each
// factorization still serves tens of right-hand sides.
const (
	decapSplitSteps = 100
	traceNoiseSteps = 50
)

// driver is one experiment driver: a public core entry point and the
// rendering of its result.
type driver struct {
	name string
	run  func(*core.Study) (string, error)
}

// batchWorkload is a fixed set of drivers that one pass runs
// concurrently on one pool of GOMAXPROCS workers, as vsexplore does.
type batchWorkload struct {
	name    string
	drivers []driver
}

func registryDriver(name string) driver {
	return driver{name, func(s *core.Study) (string, error) { return core.RunExperiment(s, name, false) }}
}

var paperFigs = batchWorkload{"paper-figs", []driver{
	registryDriver("fig5a"), registryDriver("fig5b"), registryDriver("fig6"), registryDriver("fig8"),
	registryDriver("headlines"), registryDriver("ext-scaling"), registryDriver("ext-em-mc"), registryDriver("thermal"),
}}

var manyRHS = batchWorkload{"many-rhs", []driver{
	{"ext-decap-split", func(s *core.Study) (string, error) {
		r, err := s.ExtDecapSplit(decapSplitSteps)
		if err != nil {
			return "", err
		}
		return core.RenderExtDecapSplit(r), nil
	}},
	{"ext-trace-noise", func(s *core.Study) (string, error) {
		r, err := s.ExtTraceNoise(traceNoiseSteps)
		if err != nil {
			return "", err
		}
		return core.RenderExtTraceNoise(r), nil
	}},
}}

// batchDriverNames lists every driver of the batch workloads; each has a
// core.<name>_s per-layer metric.
func batchDriverNames() []string {
	var out []string
	for _, w := range []batchWorkload{paperFigs, manyRHS} {
		for _, d := range w.drivers {
			out = append(out, d.name)
		}
	}
	return out
}

// pass is the record of one batch pass.
type pass struct {
	wall, cpu, allocMB float64
	rssMB              float64 // peak resident set during the pass
	outputs            []string
	errs               []error
	root               int // the pass span (traced passes)
	from, to           time.Time
	registry           map[string]float64 // registry deltas (traced passes)
}

// runPass runs every driver once, concurrently, on a fresh study. Each
// pass starts from a collected heap returned to the OS, so its peak
// resident set is its own, not what an earlier pass left behind.
func (w batchWorkload) runPass(seed int64, tr *tracer) (pass, error) {
	debug.FreeOSMemory()
	s := core.NewStudy()
	s.Seed = seed
	var before map[string]float64
	if tr != nil {
		before = flatSnapshot(telemetry.Default().Snapshot())
	}
	n := len(w.drivers)
	p := pass{outputs: make([]string, n), errs: make([]error, n)}
	stop := make(chan struct{})
	peak, err := sampleRSS(stop)
	if err != nil {
		return p, err
	}
	cpu0 := selfCPU()
	alloc0 := totalAlloc()
	p.from = time.Now()
	p.root = tr.begin("pass", 0, 0)
	// Each driver's error is kept apart so one failure does not cancel
	// its siblings; the pool itself never sees an error.
	_ = parallel.ForEach(context.Background(), parallel.NewPool(0), w.drivers, func(i int, d driver) error {
		id := tr.begin("core."+d.name, p.root, i+1)
		p.outputs[i], p.errs[i] = d.run(s)
		tr.end(id)
		return nil
	})
	tr.end(p.root)
	p.to = time.Now()
	p.wall = p.to.Sub(p.from).Seconds()
	p.cpu = selfCPU() - cpu0
	p.allocMB = float64(totalAlloc()-alloc0) / (1 << 20)
	close(stop)
	p.rssMB = <-peak
	if tr != nil {
		p.registry = delta(before, flatSnapshot(telemetry.Default().Snapshot()))
	}
	return p, nil
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// runBatch measures a batch workload: setup probes, then passes until
// the time budget is spent. A traced run spends the first half untraced
// and the second half with telemetry and spans on.
func runBatch(w batchWorkload, o options, log io.Writer) (*result, error) {
	res := newResult(w.name)
	setup, err := measureBatchSetup()
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if o.trace == 1 {
		tr = newTracer()
	}
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	var plain, traced []pass
	for {
		el := time.Since(start)
		if el >= budget && len(plain) > 0 && (tr == nil || len(traced) > 0) {
			break
		}
		if tr != nil && len(plain) > 0 && el >= budget/2 {
			telemetry.Enable()
			p, err := w.runPass(o.seed, tr)
			telemetry.Disable()
			if err != nil {
				return nil, err
			}
			traced = append(traced, p)
			fmt.Fprintf(log, "perfbench: %s traced pass %d: %.2fs\n", w.name, len(traced), p.wall)
			continue
		}
		p, err := w.runPass(o.seed, nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, p)
		fmt.Fprintf(log, "perfbench: %s pass %d: %.2fs\n", w.name, len(plain), p.wall)
	}

	// Output checks run after the timed passes.
	refs, err := loadRefs()
	if err != nil {
		return nil, err
	}
	for _, p := range append(append([]pass(nil), plain...), traced...) {
		for i, d := range w.drivers {
			res.attempted++
			if p.errs[i] != nil {
				res.fail("%s: %v", d.name, p.errs[i])
				continue
			}
			if err := checkOutput(d.name, p.outputs[i], o.seed, refs); err != nil {
				res.fail("%s: %v", d.name, err)
			}
		}
	}

	// A batch user waits for the whole set: vsexplore prints the outputs
	// once every driver has finished. So a job is a pass here; each
	// driver's own time is the per-layer core.<driver>_s.
	var walls, cpus, allocs, rss []float64
	for _, p := range plain {
		walls = append(walls, p.wall)
		cpus = append(cpus, p.cpu)
		allocs = append(allocs, p.allocMB)
		rss = append(rss, p.rssMB)
	}
	tailP := res.setEndToEnd(setup, walls, cpus, allocs, rss, walls)
	res.notes = append(res.notes,
		fmt.Sprintf("passes: %d untraced, %d traced; setup probes: %d", len(plain), len(traced), len(setup)),
		fmt.Sprintf("job_tail_s is p%g of %d passes", tailP, len(walls)))

	if tr != nil {
		ls := layerSamples{}
		var tw []float64
		for _, p := range traced {
			spans := tr.under(p.root)
			lm := programLayers(p.registry)
			for k, v := range spanLayers(spans) {
				lm[k] = v
			}
			lm["server.queue_wait_s"] = 0 // no daemon in a batch pass
			lm["unattributed_frac"] = 1 - covered(spans, p.from, p.to)/p.wall
			ls.add(lm)
			tw = append(tw, p.wall)
		}
		ls.add(map[string]float64{"trace_overhead_frac": median(tw)/median(walls) - 1})
		ls.finish(res)
		path, err := writeTrace(tr, o, w.name)
		if err != nil {
			return nil, err
		}
		res.notes = append(res.notes, "chrome trace: "+path)
	}
	return res, nil
}

// writeRefs renders every batch driver at the default seed into dir, one
// <driver>.txt file each: the references checkOutput compares against.
func writeRefs(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, w := range []batchWorkload{paperFigs, manyRHS} {
		p, err := w.runPass(defaultSeed, nil)
		if err != nil {
			return err
		}
		for i, d := range w.drivers {
			if p.errs[i] != nil {
				return fmt.Errorf("%s: %w", d.name, p.errs[i])
			}
			if err := os.WriteFile(filepath.Join(dir, d.name+".txt"), []byte(p.outputs[i]), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}
