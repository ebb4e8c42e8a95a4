package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"voltstack/internal/rescache"
	"voltstack/internal/server"
	"voltstack/internal/telemetry"
)

// Served-sweep inputs. Each pass replays the same seeded sequence of
// jobsPerPass sweep jobs against a fresh daemon. A job covers one TSV
// topology, two pad fractions and sweepConverters on an 8-layer stack at
// 16x16 (6 design points). Jobs take the topologies in turn, so the mix,
// and with it the cost of a pass, does not depend on the seed. From the
// second round on, one pad fraction of a job is new and the other repeats
// a pad of an earlier job with the same topology, so 44% of the points
// were computed by an earlier job. That job is at least three positions
// back, which lets it finish first when two clients run side by side.
// Pad fractions are drawn from [0.3, 0.7]. With 27 jobs, the 4 to 6
// passes a 20 s run makes all report job_tail_s at p90, so the tail's
// percentile does not flip with the pass count.
const (
	jobsPerPass = 27
	sweepLayers = 8
)

var (
	sweepConverters = []int{4, 8}
	sweepTSVs       = []string{"dense", "sparse", "few"}
)

// vsservedBin is the daemon run.sh builds.
var vsservedBin = filepath.Join(buildDir, "vsserved")

// pollBackoff makes server.Client.Wait poll every 10 ms. The client's
// default schedule (100 ms doubling, random jitter) would make job
// latency a property of the polling schedule instead of the service.
var pollBackoff = server.Backoff{Initial: 10 * time.Millisecond, Max: 10 * time.Millisecond, Jitter: -1}

// genJobs returns the seeded job sequence of one pass.
func genJobs(seed int64, n int) []server.JobRequest {
	rng := rand.New(rand.NewSource(seed))
	used := map[int]bool{} // pad fractions, in thousandths
	fresh := func() int {
		for {
			if p := 300 + rng.Intn(401); !used[p] {
				used[p] = true
				return p
			}
		}
	}
	padsOf := make([][]int, len(sweepTSVs)) // pads used so far, per topology
	jobs := make([]server.JobRequest, 0, n)
	for i := 0; i < n; i++ {
		t := i % len(sweepTSVs)
		var pOld int
		if old := padsOf[t]; len(old) > 0 {
			pOld = old[rng.Intn(len(old))]
		} else {
			pOld = fresh()
			padsOf[t] = append(padsOf[t], pOld)
		}
		pNew := fresh()
		padsOf[t] = append(padsOf[t], pNew)
		pads := []float64{float64(pOld) / 1000, float64(pNew) / 1000}
		if rng.Intn(2) == 0 {
			pads[0], pads[1] = pads[1], pads[0]
		}
		jobs = append(jobs, server.JobRequest{
			Kind:   server.KindSweep,
			Coarse: true,
			Sweep: &server.SweepSpec{
				Layers:         sweepLayers,
				PadFractions:   pads,
				ConverterCount: append([]int(nil), sweepConverters...),
				TSVs:           []string{sweepTSVs[t]},
			},
		})
	}
	return jobs
}

// repeatedShare is the fraction of the sequence's design points that an
// earlier job of the sequence already covers — the property the result
// cache serves.
func repeatedShare(jobs []server.JobRequest) (share float64, points int) {
	seen := map[string]bool{}
	repeated := 0
	for _, j := range jobs {
		for _, d := range server.SweepSpace(j).Designs() {
			k := fmt.Sprintf("%s/%v/%g/%d", j.Sweep.TSVs[0], d.Kind, d.PadPowerFraction, d.ConvertersPerCore)
			if seen[k] {
				repeated++
			}
			seen[k] = true
			points++
		}
	}
	return float64(repeated) / float64(points), points
}

// daemon is one vsserved process listening on a loopback port.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	drained chan struct{} // closed when the stderr copy ends
	logMu   sync.Mutex
	log     []string // the daemon's last stderr lines, for errors
}

// startDaemon launches vsserved with its default settings on an
// ephemeral loopback port and returns once /healthz answers, with the
// seconds that took.
func startDaemon(bin string) (*daemon, float64, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	// The daemon dies with the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start vsserved: %w", err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1) // the one "serving" line
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.logMu.Lock()
			if d.log = append(d.log, line); len(d.log) > 20 {
				d.log = d.log[1:]
			}
			d.logMu.Unlock()
			if rest, ok := strings.CutPrefix(line, "vsserved: serving http://"); ok && d.base == "" {
				host, _, _ := strings.Cut(rest, "/")
				d.base = "http://" + host
				addr <- d.base
			}
		}
	}()
	select {
	case <-addr:
	case <-d.drained:
		d.stop()
		return nil, 0, fmt.Errorf("vsserved exited before serving: %s", d.lastLog())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, 0, fmt.Errorf("vsserved did not start within 30s: %s", d.lastLog())
	}
	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > 30*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("vsserved /healthz did not answer within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return d, time.Since(t0).Seconds(), nil
}

func (d *daemon) lastLog() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return strings.Join(d.log, " | ")
}

// stop drains the daemon with SIGTERM (SIGKILL after 20 s), waits for it
// to exit and returns its resource usage.
func (d *daemon) stop() *syscall.Rusage {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.drained
	}
	_ = d.cmd.Wait() // a signalled exit is expected
	ru, _ := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return ru
}

// jobOutcome is one served job as its client saw it.
type jobOutcome struct {
	result    []byte
	err       error
	latency   float64 // submit until the result bytes arrived
	queueWait float64 // from the job's stats document (traced passes)
}

// servedPass is the record of one pass against a fresh daemon.
type servedPass struct {
	setup, wall, cpu, allocMB, rssMB float64
	jobs                             []jobOutcome
	root                             int
	from, to                         time.Time
	daemonMetrics                    map[string]float64 // traced passes
	clientRetries                    float64
}

// runServedPass starts a daemon, drives the job sequence through it with
// nproc closed-loop clients, and stops it.
func runServedPass(bin string, jobs []server.JobRequest, tr *tracer) (servedPass, error) {
	var p servedPass
	d, setup, err := startDaemon(bin)
	if err != nil {
		return p, err
	}
	p.setup = setup
	tp := &http.Transport{}
	c := &server.Client{Base: d.base, HTTP: &http.Client{Transport: tp}, Backoff: pollBackoff}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	var retries0 float64
	if tr != nil {
		retries0 = float64(telemetry.Default().Counter("client_retries_total").Value())
	}
	p.jobs = make([]jobOutcome, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	p.from = time.Now()
	p.root = tr.begin("pass", 0, 0)
	for lane := 1; lane <= runtime.NumCPU(); lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				p.jobs[i] = serveJob(ctx, c, jobs[i], tr, p.root, lane)
			}
		}(lane)
	}
	wg.Wait()
	tr.end(p.root)
	p.to = time.Now()
	p.wall = p.to.Sub(p.from).Seconds()

	var errs []error
	if tr != nil {
		p.clientRetries = float64(telemetry.Default().Counter("client_retries_total").Value()) - retries0
		page, err := c.Get(ctx, "/metrics")
		if err == nil {
			p.daemonMetrics, err = promValues(string(page))
		}
		errs = append(errs, err)
	}
	page, err := c.Get(ctx, "/debug/pprof/heap?debug=1")
	if err == nil {
		var alloc uint64
		alloc, err = totalAllocFrom(string(page))
		p.allocMB = float64(alloc) / (1 << 20)
	}
	errs = append(errs, err)
	tp.CloseIdleConnections()
	ru := d.stop()
	if ru == nil {
		errs = append(errs, errors.New("vsserved: no resource usage"))
	} else {
		p.cpu = rusageCPU(ru)
		p.rssMB = float64(ru.Maxrss) / 1024
	}
	return p, errors.Join(errs...)
}

// serveJob submits one job, waits for it and fetches its result; a traced
// pass also fetches the job's stats document for its queue wait.
func serveJob(ctx context.Context, c *server.Client, req server.JobRequest, tr *tracer, root, lane int) jobOutcome {
	var o jobOutcome
	t0 := time.Now()
	id := tr.begin("server.submit", root, lane)
	st, err := c.Submit(ctx, req)
	tr.end(id)
	if err != nil {
		o.err = fmt.Errorf("submit: %w", err)
		return o
	}
	id = tr.begin("server.wait", root, lane)
	st, err = c.Wait(ctx, st.ID)
	tr.end(id)
	if err != nil {
		o.err = fmt.Errorf("wait %s: %w", st.ID, err)
		return o
	}
	if st.State != server.StateDone {
		o.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		return o
	}
	id = tr.begin("server.result", root, lane)
	o.result, err = c.Result(ctx, st.ID)
	tr.end(id)
	o.latency = time.Since(t0).Seconds()
	if err != nil {
		o.err = fmt.Errorf("result %s: %w", st.ID, err)
		return o
	}
	if tr != nil {
		id = tr.begin("server.stats", root, lane)
		b, err := c.Stats(ctx, st.ID)
		tr.end(id)
		var doc server.JobStats
		if err == nil {
			err = json.Unmarshal(b, &doc)
		}
		if err != nil {
			o.err = fmt.Errorf("stats %s: %w", st.ID, err)
		}
		o.queueWait = doc.QueueWaitSeconds
	}
	return o
}

// runServed measures the served-sweep workload.
func runServed(o options, log io.Writer) (*result, error) {
	res := newResult("served-sweep")
	jobs := genJobs(o.seed, jobsPerPass)
	var tr *tracer
	if o.trace == 1 {
		tr = newTracer()
	}
	// setup_s takes setupProbes daemon starts of its own besides the one
	// each pass makes.
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		d, setup, err := startDaemon(vsservedBin)
		if err != nil {
			return nil, err
		}
		d.stop()
		setups = append(setups, setup)
	}
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	var plain, traced []servedPass
	for {
		el := time.Since(start)
		if el >= budget && len(plain) > 0 && (tr == nil || len(traced) > 0) {
			break
		}
		if tr != nil && len(plain) > 0 && el >= budget/2 {
			telemetry.Enable()
			p, err := runServedPass(vsservedBin, jobs, tr)
			telemetry.Disable()
			if err != nil {
				return nil, err
			}
			traced = append(traced, p)
			fmt.Fprintf(log, "perfbench: served-sweep traced pass %d: %.2fs\n", len(traced), p.wall)
			continue
		}
		p, err := runServedPass(vsservedBin, jobs, nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, p)
		fmt.Fprintf(log, "perfbench: served-sweep pass %d: %.2fs\n", len(plain), p.wall)
	}

	// Reference results, computed in-process after the timed passes.
	tRef := time.Now()
	defer func() { fmt.Fprintf(log, "perfbench: served-sweep references: %.2fs\n", time.Since(tRef).Seconds()) }()
	for i, req := range jobs {
		want, err := referenceSweep(req)
		if err != nil {
			return nil, fmt.Errorf("reference for job %d: %w", i, err)
		}
		for _, p := range append(append([]servedPass(nil), plain...), traced...) {
			res.attempted++
			switch got := p.jobs[i]; {
			case got.err != nil:
				res.fail("job %d: %v", i, got.err)
			case !bytes.Equal(got.result, want):
				res.fail("job %d: result differs from the in-process reference", i)
			}
		}
	}

	var walls, cpus, allocs, rss, lats, rate []float64
	share, points := repeatedShare(jobs)
	for _, p := range append(append([]servedPass(nil), plain...), traced...) {
		setups = append(setups, p.setup)
	}
	for _, p := range plain {
		walls = append(walls, p.wall)
		cpus = append(cpus, p.cpu)
		allocs = append(allocs, p.allocMB)
		rss = append(rss, p.rssMB)
		rate = append(rate, float64(points)/p.wall)
		for _, j := range p.jobs {
			if j.err == nil {
				lats = append(lats, j.latency)
			}
		}
	}
	if len(lats) == 0 {
		return nil, errors.New("served-sweep: no job completed")
	}
	tailP := res.setEndToEnd(setups, walls, cpus, allocs, rss, lats)
	res.notes = append(res.notes,
		fmt.Sprintf("passes: %d untraced, %d traced, %d jobs (%d design points) each, %d closed-loop clients",
			len(plain), len(traced), len(jobs), points, runtime.NumCPU()),
		fmt.Sprintf("points_per_s %.6g (median over passes)", median(rate)),
		fmt.Sprintf("repeated design points: %.1f%% of the sequence", 100*share),
		fmt.Sprintf("job_tail_s is p%g of %d jobs", tailP, len(lats)))

	if tr != nil {
		ls := layerSamples{}
		var tw []float64
		for _, p := range traced {
			p.daemonMetrics["client_retries_total"] = p.clientRetries
			lm := programLayers(p.daemonMetrics)
			spans := tr.under(p.root)
			for k, v := range spanLayers(spans) {
				lm[k] = v
			}
			var qw float64
			for _, j := range p.jobs {
				qw += j.queueWait
			}
			lm["server.queue_wait_s"] = qw
			lm["unattributed_frac"] = 1 - covered(spans, p.from, p.to)/p.wall
			ls.add(lm)
			tw = append(tw, p.wall)
		}
		ls.add(map[string]float64{"trace_overhead_frac": median(tw)/median(walls) - 1})
		ls.finish(res)
		path, err := writeTrace(tr, o, "served-sweep")
		if err != nil {
			return nil, err
		}
		res.notes = append(res.notes, "chrome trace: "+path)
	}
	return res, nil
}

// referenceSweep is the result the daemon must return for req, computed
// in this process without the service, its cache or its journal.
func referenceSweep(req server.JobRequest) ([]byte, error) {
	r, err := server.SweepSpace(req).Run()
	if err != nil {
		return nil, err
	}
	return rescache.CanonicalJSON(r)
}
