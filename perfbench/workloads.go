package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"

	"kubeknots/internal/dlsim"
	"kubeknots/internal/experiments"
	"kubeknots/internal/k8s"
	"kubeknots/internal/sim"
	"kubeknots/internal/workloads"
)

// env is what a workload knows about its run.
type env struct {
	seed int64
	work string // private scratch directory, removed at exit
	dirs int
}

// freshDir returns a new empty directory under the run's scratch space.
func (e *env) freshDir(prefix string) (string, error) {
	e.dirs++
	dir := filepath.Join(e.work, fmt.Sprintf("%s-%d", prefix, e.dirs))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// workload is one named benchmark input.
type workload struct {
	name string
	// ready performs everything a run does before its first pass.
	ready func(e *env) error
	// pass runs the workload's load once on the input made from seed. tr
	// is nil on untraced passes.
	pass func(e *env, seed int64, tr *tracer) *passOut
}

// passOut is what one pass reports besides its allocation count.
type passOut struct {
	cpuS      float64 // CPU seconds of the timed part, at the reference speed
	hostCPUS  float64 // the same, as measured
	wallS     float64 // wall seconds of the timed part, as measured
	attempted int
	failed    int
	problems  []string
	outcome   outcome
	jcts      []float64 // simulated completion times (s), pooled over runs
	waits     []float64 // simulated queueing delays (s) of bound pods
	cp        *cpStats  // control-plane only
}

func (p *passOut) fail(format string, args ...any) {
	p.failed++
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// outcome is the simulated result of a pass. It is exact per seed: every
// pass of a run must reproduce it, and at the default seed it must equal
// the recorded expected/<workload>.json.
type outcome struct {
	Runs []runOutcome `json:"runs"`
}

// runOutcome summarises one simulation (or the control plane's cluster).
// Digest hashes every pod's lifecycle, every QoS latency and the
// utilization series (for dlsim: every job and query).
type runOutcome struct {
	Key        string  `json:"key"`
	Digest     string  `json:"digest"`
	UtilP90Pct float64 `json:"util_p90_pct"`
	Queries    int     `json:"queries"`
	Violations int     `json:"violations"`
	Completed  int     `json:"completed"`
	Pending    int     `json:"pending"`
}

// utilP90 is the mean cluster p90 SM utilization over the runs.
func (o outcome) utilP90() float64 {
	sum := 0.0
	for _, r := range o.Runs {
		sum += r.UtilP90Pct
	}
	return sum / float64(len(o.Runs))
}

// qosPerKilo pools QoS violations over every run's queries.
func (o outcome) qosPerKilo() float64 {
	q, v := 0, 0
	for _, r := range o.Runs {
		q += r.Queries
		v += r.Violations
	}
	if q == 0 {
		return 0
	}
	return 1000 * float64(v) / float64(q)
}

var registry = []*workload{
	{name: "backlog", ready: readySim, pass: clusterPass(backlogRuns())},
	{name: "steady", ready: readySim, pass: clusterPass(steadyRuns())},
	{name: "control-plane", ready: readyControlPlane, pass: controlPlanePass},
	{name: "dl-sim", ready: readySim, pass: dlPass},
}

func workloadByName(name string) *workload {
	for _, w := range registry {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	var names []string
	for _, w := range registry {
		names = append(names, w.name)
	}
	return strings.Join(names, " | ")
}

// clusterSpec is one RunCluster call of a pass.
type clusterSpec struct {
	sched   string
	mix     int
	horizon sim.Time
}

// backlogHorizon is long enough that App-Mix-3's queue is still backed up
// when the load window closes, so the two-minute drain keeps every
// scheduling round scanning queued pods against every GPU.
const backlogHorizon = 20 * sim.Second

func backlogRuns() []clusterSpec {
	return []clusterSpec{{"CBP", 3, backlogHorizon}, {"PP", 3, backlogHorizon}}
}

// steadyHorizon keeps the load window short enough for the queue to drain
// under all four schedulers; over five minutes some inputs back up under
// Uniform and Res-Ag on App-Mix-1, and the workload stops being steady.
const steadyHorizon = sim.Minute

// steadyRuns are the fig9/fig10a configurations without the backlog mix.
func steadyRuns() []clusterSpec {
	var out []clusterSpec
	for _, mix := range []int{1, 2} {
		for _, name := range experiments.SchedulerNames() {
			out = append(out, clusterSpec{name, mix, steadyHorizon})
		}
	}
	return out
}

// readySim resolves a simulation workload's inputs; the simulations build
// their own clusters, so there is nothing else to prepare.
func readySim(e *env) error {
	for _, id := range []int{1, 2, 3} {
		if _, err := workloads.MixByID(id); err != nil {
			return err
		}
	}
	for _, name := range experiments.SchedulerNames() {
		if _, err := experiments.SchedulerByName(name); err != nil {
			return err
		}
	}
	return nil
}

func clusterPass(specs []clusterSpec) func(*env, int64, *tracer) *passOut {
	return func(e *env, seed int64, tr *tracer) *passOut {
		out := &passOut{}
		clock := startRefClock()
		for _, spec := range specs {
			out.attempted++
			if err := runClusterOnce(seed, tr, clock, spec, out); err != nil {
				out.fail("%s/App-Mix-%d/seed=%d: %v", spec.sched, spec.mix, seed, err)
			}
			clock.lap()
		}
		out.cpuS, out.hostCPUS, out.wallS = clock.refCPUS(), clock.cpuS, clock.wallS
		return out
	}
}

func runClusterOnce(seed int64, tr *tracer, clock *refClock, spec clusterSpec, out *passOut) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	s, err := experiments.SchedulerByName(spec.sched)
	if err != nil {
		return err
	}
	mix, err := workloads.MixByID(spec.mix)
	if err != nil {
		return err
	}
	cfg := experiments.ClusterConfig{Seed: seed, Horizon: spec.horizon}
	var run *experiments.ClusterRun
	// The clock's wrapper is outermost, so no Schedule span contains a
	// kernel reading.
	if tr == nil {
		run = experiments.RunCluster(lapScheduler{s, clock}, mix, cfg)
	} else {
		sp := tr.begin("RunCluster", tr.root)
		run = experiments.RunCluster(lapScheduler{tr.wrapScheduler(s, sp.id), clock}, mix, cfg)
		tr.end(sp)
	}
	key := fmt.Sprintf("%s/%s/seed=%d", s.Name(), mix.Name(), seed)
	ro := clusterOutcome(key, run.Orchestrator)
	out.outcome.Runs = append(out.outcome.Runs, ro)
	out.jcts = append(out.jcts, completionTimes(run.Orchestrator)...)
	out.waits = append(out.waits, queueWaits(run.Orchestrator)...)
	return nil
}

// clusterOutcome digests an orchestrator's user-visible results.
func clusterOutcome(key string, o *k8s.Orchestrator) runOutcome {
	h := sha256.New()
	for _, p := range o.AllPods() {
		fmt.Fprintf(h, "pod %s %d %d %d %d %d %d\n", p.Name, p.SubmitAt, p.ScheduleAt,
			p.FinishedAt, p.Phase, p.Crashes, p.Preemptions)
	}
	for _, l := range o.QoS.Latencies() {
		fmt.Fprintf(h, "q %d\n", l)
	}
	for i := range o.AwakeUtil {
		hashFloats(h, o.NodeUtil[i])
		hashFloats(h, o.AwakeUtil[i])
	}
	fmt.Fprintf(h, "crashes %d drains %d\n", o.CrashEvents, o.DrainEvents)
	return runOutcome{
		Key:        key,
		Digest:     hex.EncodeToString(h.Sum(nil)),
		UtilP90Pct: o.ClusterUtilPercentiles()[1],
		Queries:    o.QoS.Queries(),
		Violations: o.QoS.Violations(),
		Completed:  len(o.Completed),
		Pending:    o.PendingLen(),
	}
}

func hashFloats(h hash.Hash, xs []float64) {
	var b [8]byte
	for _, x := range xs {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
}

func completionTimes(o *k8s.Orchestrator) []float64 {
	out := make([]float64, 0, len(o.Completed))
	for _, p := range o.Completed {
		out = append(out, (p.FinishedAt - p.SubmitAt).Seconds())
	}
	return out
}

func queueWaits(o *k8s.Orchestrator) []float64 {
	var out []float64
	for _, p := range o.AllPods() {
		if p.ScheduleAt >= 0 {
			out = append(out, (p.ScheduleAt - p.SubmitAt).Seconds())
		}
	}
	return out
}

// dlPolicies returns fresh instances of the four DL policies.
func dlPolicies() []dlsim.Policy {
	return []dlsim.Policy{
		&dlsim.TiresiasPolicy{},
		dlsim.ResAgPolicy{},
		&dlsim.GandivaPolicy{},
		&dlsim.KubeKnotsPolicy{},
	}
}

func dlPass(e *env, seed int64, tr *tracer) *passOut {
	out := &passOut{}
	clock := startRefClock()
	for _, p := range dlPolicies() {
		out.attempted++
		if err := runDLOnce(seed, tr, clock, p, out); err != nil {
			out.fail("dlsim/%s/seed=%d: %v", p.Name(), seed, err)
		}
		clock.lap()
	}
	out.cpuS, out.hostCPUS, out.wallS = clock.refCPUS(), clock.cpuS, clock.wallS
	return out
}

func runDLOnce(seed int64, tr *tracer, clock *refClock, p dlsim.Policy, out *passOut) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	cfg := dlsim.Default()
	cfg.Seed = seed
	var res *dlsim.Result
	// The clock's wrapper is outermost, so no span contains a kernel reading.
	if tr == nil {
		res = dlsim.Run(lapPolicy{p, clock}, cfg)
	} else {
		sp := tr.begin("dlsim.Run", tr.root)
		res = dlsim.Run(lapPolicy{tr.wrapPolicy(p, sp.id), clock}, cfg)
		tr.end(sp)
	}
	h := sha256.New()
	completed := 0
	for _, j := range res.DLT {
		fmt.Fprintf(h, "dlt %d %d %d %d %d\n", j.ID, j.Arrival, j.Started, j.Finished, j.Crashes)
		if j.Finished >= 0 {
			completed++
			out.jcts = append(out.jcts, j.JCT().Seconds())
			out.waits = append(out.waits, (j.Started - j.Arrival).Seconds())
		}
	}
	for _, q := range res.DLI {
		fmt.Fprintf(h, "dli %d %d\n", q.ID, q.Latency)
	}
	fmt.Fprintf(h, "crashes %d preemptions %d unplaced %d\n", res.Crashes, res.Preemptions, res.Unplaced)
	out.outcome.Runs = append(out.outcome.Runs, runOutcome{
		Key:        fmt.Sprintf("dlsim/%s/seed=%d", res.Policy, seed),
		Digest:     hex.EncodeToString(h.Sum(nil)),
		Queries:    len(res.DLI),
		Violations: res.Violations(),
		Completed:  completed,
		Pending:    res.Unplaced,
	})
	return nil
}
