package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"
)

// passStats is one measured pass.
type passStats struct {
	out    *passOut
	allocB float64
}

// layerAcc sums the traced passes' per-layer readings.
type layerAcc struct {
	passes   int
	counters map[string]float64
	selfS    map[string]float64
	gcS      float64
	gcCycles float64
}

// runResult is everything a run measured.
type runResult struct {
	setupS    float64
	untraced  []passStats
	traced    []passStats
	ref       outcome
	problems  []string
	attempted int
	failed    int
	peakRSS   float64
	tracer    *tracer
	layers    layerAcc
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// runtimeReading returns heap bytes allocated, GC CPU seconds and GC cycles
// so far.
func runtimeReading() (allocB, gcS, gcCycles float64) {
	metrics.Read(runtimeSamples)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return val(runtimeSamples[0]), val(runtimeSamples[1]), val(runtimeSamples[2])
}

// inputSeed is the seed of a run's k-th input. Input 0 is the run's seed
// itself, so the default seed's first input is the one expected/ records.
func inputSeed(seed int64, k int) int64 { return seed + int64(k)*1000003 }

// measure runs one pass per input, each on a new input made from the run's
// seed, until the time is up and at least minPasses have run; metrics are
// taken over the passes, so one input's queueing luck moves them little.
// Input 0 first runs once untimed, to warm the heap and caches up; its
// outcome is the reference, and the timed pass of input 0 must reproduce it
// byte for byte. With o.trace every input runs a second time, traced, and
// must reproduce its untraced outcome too.
func measure(w *workload, e *env, o options) *runResult {
	res := &runResult{layers: layerAcc{counters: map[string]float64{}, selfS: map[string]float64{}}}
	if o.trace {
		res.tracer = newTracer(w.name, o.seed)
	}
	warm := runPass(w, e, o.seed, res, false)
	res.ref = warm.out.outcome
	checkReference(w, o, res)
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for k := 0; k < minPasses || time.Now().Before(deadline); k++ {
		seed := inputSeed(o.seed, k)
		ps := runPass(w, e, seed, res, false)
		res.untraced = append(res.untraced, ps)
		if k == 0 && !sameOutcome(ps.out.outcome, res.ref) {
			res.problems = append(res.problems, fmt.Sprintf("seed %d: second run's outcome differs from the first", seed))
		}
		if o.trace {
			tp := runPass(w, e, seed, res, true)
			res.traced = append(res.traced, tp)
			if !sameOutcome(tp.out.outcome, ps.out.outcome) {
				res.problems = append(res.problems, fmt.Sprintf("seed %d: traced outcome differs from untraced", seed))
			}
		}
	}
	res.peakRSS = peakRSSMB()
	return res
}

// checkReference records input 0's outcome with --record, and otherwise
// compares it with the recorded one at the default seed.
func checkReference(w *workload, o options, res *runResult) {
	if o.record != "" {
		if err := recordExpected(o.record, w.name, res.ref); err != nil {
			res.problems = append(res.problems, fmt.Sprintf("record expected outcome: %v", err))
		}
		return
	}
	if o.seed != defaultSeed {
		return
	}
	want, err := loadExpected(w.name)
	if err == nil {
		err = checkExpected(want, res.ref)
	}
	if err != nil {
		res.problems = append(res.problems, fmt.Sprintf("default-seed outcome: %v", err))
	}
}

// runPass runs one pass, with the tracer, counter deltas and a CPU profile
// around it when traced.
func runPass(w *workload, e *env, seed int64, res *runResult, traced bool) passStats {
	a0, gc0, cyc0 := runtimeReading()
	var out *passOut
	if !traced {
		out = w.pass(e, seed, nil)
		a1, _, _ := runtimeReading()
		res.account(out)
		return passStats{out: out, allocB: a1 - a0}
	}
	tr := res.tracer
	c0 := counters()
	var prof bytes.Buffer
	profiling := pprof.StartCPUProfile(&prof) == nil
	root := tr.begin("pass/"+w.name, -1)
	tr.root = root.id
	out = w.pass(e, seed, tr)
	tr.end(root)
	tr.root = -1
	tr.keep = false
	if profiling {
		pprof.StopCPUProfile()
	}
	a1, gc1, cyc1 := runtimeReading()
	res.account(out)
	acc := &res.layers
	acc.passes++
	acc.gcS += gc1 - gc0
	acc.gcCycles += cyc1 - cyc0
	for k, v := range counterDelta(c0, counters()) {
		acc.counters[k] += v
	}
	if !profiling {
		res.problems = append(res.problems, "cpu profile could not be started")
	} else if p, err := parseCPUProfile(prof.Bytes()); err != nil {
		res.problems = append(res.problems, fmt.Sprintf("cpu profile: %v", err))
	} else {
		for k, v := range p.selfSeconds() {
			acc.selfS[k] += v
		}
	}
	return passStats{out: out, allocB: a1 - a0}
}

func (r *runResult) account(p *passOut) {
	r.attempted += p.attempted
	r.failed += p.failed
	r.problems = append(r.problems, p.problems...)
}

// named is one reported metric.
type named struct {
	name  string
	value float64
	unit  string
}

func cpus(ps []passStats) []float64 {
	var out []float64
	for _, p := range ps {
		out = append(out, p.out.cpuS)
	}
	return out
}

// mean is the arithmetic mean of xs (0 for an empty slice). Allocation
// depends on the input alone, not on the host, so a pass never reads as an
// outlier and the mean over inputs varies less from run to run than their
// median.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func allocsMB(ps []passStats) []float64 {
	var out []float64
	for _, p := range ps {
		out = append(out, p.allocB/1e6)
	}
	return out
}

// endToEndMetrics are the gated metrics, from the untraced passes. Every
// workload reports every one of them.
func endToEndMetrics(r *runResult) []named {
	return []named{
		{"setup_s", r.setupS, "s"},
		{"cpu_s", median(cpus(r.untraced)), "s"},
		{"alloc_mb", mean(allocsMB(r.untraced)), "MB"},
		{"peak_rss_mb", r.peakRSS, "MB"},
	}
}

// pooledLatencies gathers one control-plane route's latencies over passes.
func pooledLatencies(ps []passStats, route string) []float64 {
	var out []float64
	for _, p := range ps {
		if p.out.cp != nil {
			out = append(out, p.out.cp.latMS[route]...)
		}
	}
	return out
}

func cpMedian(ps []passStats, f func(*cpStats) float64) float64 {
	var xs []float64
	for _, p := range ps {
		if p.out.cp != nil {
			xs = append(xs, f(p.out.cp))
		}
	}
	return median(xs)
}

// perLayerMetrics are read from the traced passes, per pass.
func perLayerMetrics(r *runResult) []named {
	acc := r.layers
	n := float64(acc.passes)
	if n == 0 {
		n = 1
	}
	c := func(key string) float64 { return acc.counters[key] / n }
	self := func(layer string) float64 { return acc.selfS[layer] / n }
	tr := r.tracer
	schedN, schedS := tr.stat("Schedule")
	placeN, placeS := tr.stat("PlaceDLT")
	_, serveS := tr.stat("ServeDLI")
	queueMean, placedPerOffered := 0.0, 0.0
	if schedN > 0 {
		queueMean = float64(tr.offered) / float64(schedN)
	}
	if tr.offered > 0 {
		placedPerOffered = float64(tr.placed) / float64(tr.offered)
	}
	hits, rebuilds := c("knots_snapshot_node_cache_hits_total"), c("knots_snapshot_node_rebuilds_total")
	hitRatio := 0.0
	if hits+rebuilds > 0 {
		hitRatio = hits / (hits + rebuilds)
	}
	var waits []float64
	snapMax := 0
	for _, p := range r.traced {
		waits = append(waits, p.out.waits...)
		if p.out.cp != nil && p.out.cp.snapshotBytes > snapMax {
			snapMax = p.out.cp.snapshotBytes
		}
	}
	// Traced pass k reran untraced pass k's input, so the pairs compare
	// like with like.
	var ratios []float64
	for k := range r.traced {
		if u := r.untraced[k].out.cpuS; u > 0 {
			ratios = append(ratios, r.traced[k].out.cpuS/u-1)
		}
	}

	ms := []named{
		{"scheduler.busy_s", schedS / n, "s"},
		{"scheduler.rounds", float64(schedN) / n, "count"},
		{"scheduler.round_p50_us", percentile(tr.roundsUS, 50), "us"},
		{"scheduler.round_p99_us", percentile(tr.roundsUS, 99), "us"},
		{"scheduler.queue_mean", queueMean, "pods"},
		{"scheduler.placed_per_offered", placedPerOffered, "ratio"},
		{"knots.sample_self_s", self("knots.sample"), "s"},
		{"knots.snapshot_self_s", self("knots.snapshot"), "s"},
		{"knots.heartbeats", c("knots_heartbeats_total"), "count"},
		{"knots.gpu_samples", c("knots_gpu_samples_total"), "count"},
		{"knots.node_cache_hit_ratio", hitRatio, "ratio"},
		{"tsdb.read_self_s", self("tsdb.read"), "s"},
		{"tsdb.append_self_s", self("tsdb.append"), "s"},
		{"cluster.tick_self_s", self("cluster"), "s"},
		{"cluster.oom_kills", c("k8s_oom_kills_total"), "count"},
		{"k8s.self_s", self("k8s"), "s"},
		{"k8s.placements", c("k8s_placements_total"), "count"},
		{"k8s.bind_rejects", c("k8s_rejections_total{reason=bind}"), "count"},
		{"k8s.pending_wait_p50_s", median(waits), "s"},
		{"harvest.self_s", self("harvest"), "s"},
		{"harvest.admissions", c("harvest_admissions_total"), "count"},
		{"harvest.preemptions", c("harvest_preemptions_total"), "count"},
	}
	for _, route := range cpRoutes {
		lat := pooledLatencies(r.traced, route)
		ms = append(ms,
			named{"api." + route + ".p50_ms", percentile(lat, 50), "ms"},
			named{"api." + route + ".p99_ms", percentile(lat, 99), "ms"})
	}
	ms = append(ms,
		named{"api.server_busy_s", c("api_request_seconds"), "s"},
		named{"api.conflicts", c("api_requests_total{code=409}"), "count"},
		named{"persist.wal_records", c("persist_wal_records_total"), "count"},
		named{"persist.wal_fsyncs", c("persist_wal_fsyncs_total"), "count"},
		named{"persist.snapshots", c("persist_snapshots_total"), "count"},
		named{"persist.snapshot_s", c("persist_snapshot_seconds"), "s"},
		named{"persist.snapshot_bytes_max", float64(snapMax), "bytes"},
		named{"persist.open_s", cpMedian(r.traced, func(s *cpStats) float64 { return s.openS }), "s"},
		named{"persist.replay_s", cpMedian(r.traced, func(s *cpStats) float64 { return s.replayS }), "s"},
		named{"persist.replayed_cmds", c("persist_recovery_replayed_total"), "count"},
		named{"persist.recovery_s", cpMedian(r.traced, func(s *cpStats) float64 { return s.recoveryS }), "s"},
		named{"dlsim.place_dlt_s", placeS / n, "s"},
		named{"dlsim.serve_dli_s", serveS / n, "s"},
		named{"dlsim.place_calls", float64(placeN) / n, "count"},
		named{"obs.trace_overhead_frac", median(ratios), "ratio"},
		named{"runtime.gc_s", acc.gcS / n, "s"},
		named{"runtime.gc_cycles", acc.gcCycles / n, "count"},
	)
	return ms
}

// report prints a human-readable account of the run: the end-to-end
// metrics and the figures the JSON line leaves out (failure share,
// simulated outcomes, control-plane latencies), each with its sample count,
// and any problem found.
func report(wr io.Writer, w *workload, o options, r *runResult) {
	fmt.Fprintf(wr, "perfbench %s seed=%d seconds=%d trace=%v: %d inputs, %d untraced + %d traced passes\n",
		w.name, o.seed, o.seconds, o.trace, len(r.untraced), len(r.untraced), len(r.traced))
	line := func(name string, v float64, unit, note string) {
		fmt.Fprintf(wr, "  %-22s %14.6g %-6s %s\n", name, v, unit, note)
	}
	n := len(r.untraced)
	line("setup_s", r.setupS, "s", fmt.Sprintf("median of %d set-ups", setupProbes))
	cs := cpus(r.untraced)
	line("cpu_s", median(cs), "s", fmt.Sprintf("median of %d passes, min %.4g, max %.4g, at the reference speed", n, percentile(cs, 0), percentile(cs, 100)))
	var host, wall, slow []float64
	for _, p := range r.untraced {
		host = append(host, p.out.hostCPUS)
		wall = append(wall, p.out.wallS)
		if p.out.cpuS > 0 {
			slow = append(slow, p.out.hostCPUS/p.out.cpuS)
		}
	}
	line("host_cpu_s", median(host), "s", fmt.Sprintf("median of %d passes as measured; host %.3gx slower than the reference", n, median(slow)))
	line("wall_s", median(wall), "s", fmt.Sprintf("median of %d passes as measured", n))
	line("alloc_mb", mean(allocsMB(r.untraced)), "MB", fmt.Sprintf("mean of %d passes", n))
	line("peak_rss_mb", r.peakRSS, "MB", "whole process")
	base := r.attempted
	if base == 0 {
		base = 1
	}
	line("failed_frac", float64(r.failed)/float64(base), "ratio", fmt.Sprintf("%d of %d operations", r.failed, r.attempted))
	if w.name == "dl-sim" {
		fmt.Fprintf(wr, "  %-22s %14s\n", "util_p90_pct", "n/a")
	} else {
		line("util_p90_pct", r.ref.utilP90(), "%", "simulated, mean over runs")
	}
	line("qos_viol_per_kilo", r.ref.qosPerKilo(), "1/kq", "simulated, pooled")
	line("jct_p50_s", median(r.untraced[0].out.jcts), "s", fmt.Sprintf("simulated, %d completions", len(r.untraced[0].out.jcts)))
	if w.name == "control-plane" {
		for _, rt := range []struct{ metric, route string }{
			{"submit", "submit"}, {"advance", "advance"}, {"read", ""},
		} {
			var lat []float64
			if rt.route == "" {
				for _, route := range cpRoutes[2:] {
					lat = append(lat, pooledLatencies(r.untraced, route)...)
				}
			} else {
				lat = pooledLatencies(r.untraced, rt.route)
			}
			tail := tailPercentile(len(lat))
			line(rt.metric+"_p50_ms", percentile(lat, 50), "ms", fmt.Sprintf("%d requests", len(lat)))
			line(fmt.Sprintf("%s_p%g_ms", rt.metric, tail), percentile(lat, tail), "ms", fmt.Sprintf("%d requests", len(lat)))
		}
		line("recovery_s", cpMedian(r.untraced, func(s *cpStats) float64 { return s.recoveryS }), "s",
			fmt.Sprintf("median of %d recoveries", n))
	}
	for _, ro := range r.ref.Runs {
		fmt.Fprintf(wr, "  outcome %-28s completed=%d pending=%d queries=%d violations=%d util_p90=%.4g digest=%.12s\n",
			ro.Key, ro.Completed, ro.Pending, ro.Queries, ro.Violations, ro.UtilP90Pct, ro.Digest)
	}
	if o.trace {
		ms := perLayerMetrics(r)
		sort.SliceStable(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
		for _, m := range ms {
			line(m.name, m.value, m.unit, "")
		}
		var other []string
		for k, v := range r.layers.selfS {
			other = append(other, fmt.Sprintf("%s=%.3g", k, v/float64(max(1, r.layers.passes))))
		}
		sort.Strings(other)
		fmt.Fprintf(wr, "  cpu self seconds per traced pass by layer: %v\n", other)
	}
	for _, p := range r.problems {
		fmt.Fprintf(wr, "  PROBLEM: %s\n", p)
	}
}
