package main

import (
	"fmt"
	"sort"

	"voltstack/internal/telemetry"
)

// spec names one reported metric and its unit.
type spec struct{ name, unit string }

// endToEnd is the BENCHMARK.json "end_to_end" list: what a user of the
// program sees, reported by every workload.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"pass_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"rss_peak_mb", "MB"},
	{"job_p50_s", "s"},
	{"job_tail_s", "s"},
}

// perLayer is the BENCHMARK.json "per_layer" list, reported by every
// traced run. Counts and _s sums are per pass.
var perLayer = func() []spec {
	var out []spec
	for _, d := range batchDriverNames() {
		out = append(out, spec{"core." + d + "_s", "s"})
	}
	return append(out,
		spec{"parallel.queue_wait_s", "s"},
		spec{"parallel.task_s", "s"},
		spec{"parallel.occupancy", "ratio"},
		spec{"pdngrid.solves", "count"},
		spec{"pdngrid.engine_builds", "count"},
		spec{"pdngrid.assemble_s", "s"},
		spec{"pdngrid.linear_solve_s", "s"},
		spec{"pdngrid.outer_iterations", "count"},
		spec{"circuit.compiles", "count"},
		spec{"circuit.restamps", "count"},
		spec{"circuit.warm_starts", "count"},
		spec{"circuit.prepared_solves", "count"},
		spec{"sparse.numeric_refactors", "count"},
		spec{"sparse.refactor_s", "s"},
		spec{"sparse.precond_build_s", "s"},
		spec{"sparse.pcg_solves", "count"},
		spec{"sparse.pcg_iterations", "count"},
		spec{"sparse.iterations_per_solve", "iter/solve"},
		spec{"sparse.solves_per_refactor", "solves/refactor"},
		spec{"sparse.kernel_parallel_dispatches", "count"},
		spec{"sparse.amg_builds", "count"},
		spec{"em.mc_trials", "count"},
		spec{"em.mc_run_s", "s"},
		spec{"explore.points", "count"},
		spec{"explore.eval_s", "s"},
		spec{"rescache.hits", "count"},
		spec{"rescache.lookups", "count"},
		spec{"rescache.singleflight_shared", "count"},
		spec{"server.submit_s", "s"},
		spec{"server.wait_s", "s"},
		spec{"server.result_s", "s"},
		spec{"server.stats_s", "s"},
		spec{"server.queue_wait_s", "s"},
		spec{"server.rejected", "count"},
		spec{"client.retries", "count"},
		spec{"unattributed_frac", "ratio"},
		spec{"trace_overhead_frac", "ratio"},
	)
}()

// derived are ratios printed in the report but kept off the result line,
// because some workloads never exercise their base (no workload but
// served-sweep looks anything up in the result cache). Their numerator
// and base are per-layer metrics.
var derived = []spec{{"rescache.hit_ratio", "ratio"}}

// flatSnapshot flattens a registry snapshot to the names the daemon's
// /metrics uses: counters and gauges by name, histograms as name_sum and
// name_count.
func flatSnapshot(s telemetry.RegistrySnapshot) map[string]float64 {
	out := map[string]float64{}
	for n, v := range s.Counters {
		out[n] = float64(v)
	}
	for n, v := range s.Gauges {
		out[n] = v
	}
	for n, h := range s.Histograms {
		out[n+"_sum"] = h.Sum
		out[n+"_count"] = float64(h.Count)
	}
	return out
}

// delta returns after minus before for every name in after.
func delta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for n, v := range after {
		out[n] = v - before[n]
	}
	return out
}

// programLayers maps the program's own counters (a per-pass delta) onto
// per-layer metric names. A ratio with a zero base is left out, which
// reports it as missing.
func programLayers(d map[string]float64) map[string]float64 {
	m := map[string]float64{
		"parallel.queue_wait_s":             d["parallel_queue_wait_seconds_sum"],
		"parallel.task_s":                   d["parallel_task_seconds_sum"],
		"pdngrid.solves":                    d["pdngrid_solves_total"],
		"pdngrid.engine_builds":             d["pdngrid_engine_builds_total"],
		"pdngrid.assemble_s":                d["pdngrid_assemble_seconds_sum"],
		"pdngrid.linear_solve_s":            d["pdngrid_linear_solve_seconds_sum"],
		"pdngrid.outer_iterations":          d["pdngrid_outer_iterations_total"],
		"circuit.compiles":                  d["circuit_prepared_compiles_total"],
		"circuit.restamps":                  d["circuit_prepared_restamps_total"],
		"circuit.warm_starts":               d["circuit_prepared_warm_starts_total"],
		"circuit.prepared_solves":           d["circuit_prepared_solves_total"],
		"sparse.numeric_refactors":          d["sparse_numeric_refactors_total"],
		"sparse.refactor_s":                 d["sparse_numeric_refactor_seconds_sum"],
		"sparse.precond_build_s":            d["sparse_precond_build_seconds_sum"],
		"sparse.pcg_solves":                 d["sparse_pcg_solves_total"],
		"sparse.pcg_iterations":             d["sparse_pcg_iterations_total"],
		"sparse.kernel_parallel_dispatches": d["sparse_kernel_parallel_dispatches_total"],
		"sparse.amg_builds":                 d["sparse_amg_builds_total"],
		"em.mc_trials":                      d["em_mc_trials_total"],
		"em.mc_run_s":                       d["em_mc_run_seconds_sum"],
		"explore.points":                    d["explore_points_total"],
		"explore.eval_s":                    d["explore_eval_seconds_sum"],
		"rescache.hits":                     d["rescache_hits_total"],
		"rescache.lookups":                  d["rescache_hits_total"] + d["rescache_misses_total"],
		"rescache.singleflight_shared":      d["rescache_singleflight_shared_total"],
		"server.rejected":                   d["server_jobs_rejected_total"],
		"client.retries":                    d["client_retries_total"],
	}
	setRatio := func(name string, num, base float64) {
		if v, ok := ratio(num, base); ok {
			m[name] = v
		}
	}
	setRatio("parallel.occupancy", d["parallel_batch_occupancy_sum"], d["parallel_batch_occupancy_count"])
	setRatio("sparse.iterations_per_solve", d["sparse_pcg_iterations_total"], d["sparse_pcg_solves_total"])
	setRatio("sparse.solves_per_refactor", d["sparse_pcg_solves_total"], d["sparse_numeric_refactors_total"])
	setRatio("rescache.hit_ratio", m["rescache.hits"], m["rescache.lookups"])
	return m
}

// layerSamples collects one value per traced pass for each per-layer
// metric.
type layerSamples map[string][]float64

func (ls layerSamples) add(m map[string]float64) {
	for k, v := range m {
		ls[k] = append(ls[k], v)
	}
}

// spanLayers sums the benchmark-side spans of one pass into the core.*
// and server.* time metrics; a layer the pass never called reads 0.
func spanLayers(spans []span) map[string]float64 {
	sums := sumByName(spans)
	m := map[string]float64{}
	for _, d := range batchDriverNames() {
		m["core."+d+"_s"] = sums["core."+d]
	}
	for _, c := range []string{"submit", "wait", "result", "stats"} {
		m["server."+c+"_s"] = sums["server."+c]
	}
	return m
}

// finish reduces the samples to medians: the declared per-layer metrics
// go on the result line, a declared metric without samples is missing,
// and derived ratios become report notes.
func (ls layerSamples) finish(r *result) {
	for _, s := range perLayer {
		if v, ok := ls[s.name]; ok {
			r.layers[s.name] = metric{median(v), s.unit}
		} else {
			r.missing = append(r.missing, s.name)
		}
	}
	for _, s := range derived {
		if v, ok := ls[s.name]; ok {
			r.notes = append(r.notes, fmt.Sprintf("%-36s %14.6g %s (derived, not on the result line)", s.name, median(v), s.unit))
		} else {
			r.notes = append(r.notes, fmt.Sprintf("%-36s %14s (zero base)", s.name, "missing"))
		}
	}
	if v, ok := ls["sparse.numeric_refactors"]; ok {
		r.notes = append(r.notes, fmt.Sprintf("sparse.solves_per_refactor base: %g numeric refactors per pass", median(v)))
	}
	sort.Strings(r.missing)
}
