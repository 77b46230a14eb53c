// Command perfbench is the repository benchmark. It drives the simulator
// and the control plane through the public functions of kubeknots/internal/*
// from one process, on one of four seeded workloads:
//
//	backlog        CBP and PP on App-Mix-3 with a queue that never drains
//	steady         all four schedulers on App-Mix-1 and App-Mix-2
//	control-plane  the /v1 API server with WAL persistence, a crash and a recovery
//	dl-sim         the four dlsim policies at paper scale
//
// A run measures one pass of the workload's load per input, each input made
// from the seed, for the requested number of seconds, and reports medians
// over the passes. Times are CPU seconds at a reference host speed: the
// process's CPU time scaled by the speed of a fixed kernel timed between
// stretches of work (hostspeed.go), so that a shared machine's drift does
// not read as a change in the program. The first input runs once untimed to
// warm up and again timed (with --trace 1, every input runs again, traced),
// and both runs must give byte-identical simulated outcomes; at the default
// seed the first input's outcome must equal the recorded expected values. A
// traced run wraps every call into a layer in a span, takes counter deltas
// from the obs registry and a CPU profile, and the run reports per-layer
// metrics.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A human-readable report goes to
// standard error. Run it through run.py, which builds it first:
//
//	python3 perfbench/run.py --workload steady --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
)

const (
	// defaultSeed is the seed whose outcomes are recorded in expected/.
	defaultSeed = 1
	// setupProbes is how many times a run measures set-up; setup_s is the
	// median.
	setupProbes = 21
	// minPasses is the least number of inputs a run measures.
	minPasses = 4
	// procs is the number of Ps: one, so every machine runs the same degree
	// of parallelism, and the program and the reference kernel run under
	// the same conditions (a second P would let garbage collection and the
	// server side run on a vCPU whose steal and contention the kernel,
	// timed on one thread, does not see). The control plane's clients and
	// server still run concurrently, interleaved.
	procs = 1
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	work     string
	probe    bool
	record   string
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", defaultSeed, "input seed")
	fs.IntVar(&o.seconds, "seconds", 25, "measurement time in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from a traced run")
	fs.StringVar(&o.work, "work", filepath.Join(".bench_build", "perfbench"), "scratch directory for state and spans")
	fs.BoolVar(&o.probe, "ready-probe", false, "set the workload up once and exit (used to time set-up)")
	fs.StringVar(&o.record, "record", "", "write the first pass's outcome to DIR/<workload>.json instead of checking it")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if workloadByName(o.workload) == nil {
		return o, fmt.Errorf("unknown workload %q (want %s)", o.workload, workloadNames())
	}
	if o.seconds < 1 {
		return o, errors.New("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return o, errors.New("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(procs)
	w := workloadByName(o.workload)
	env := &env{seed: o.seed, work: filepath.Join(o.work, fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))}
	if err := os.MkdirAll(env.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(env.work)
	if o.probe {
		if err := w.ready(env); err != nil {
			fmt.Fprintln(stderr, "perfbench: ready probe:", err)
			return 1
		}
		return 0
	}

	if err := initRefKernel(); err != nil {
		fmt.Fprintln(stderr, "perfbench: reference kernel:", err)
		return 1
	}
	setup, err := timeSetup(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up:", err)
		return 1
	}
	res := measure(w, env, o)
	res.setupS = setup
	if o.trace {
		if err := writeSpans(res.tracer, filepath.Join(o.work, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))); err != nil {
			res.problems = append(res.problems, fmt.Sprintf("write spans: %v", err))
		}
	}
	report(stderr, w, o, res)
	out := result{
		Correct:   len(res.problems) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metric{},
	}
	if o.trace {
		for _, m := range perLayerMetrics(res) {
			out.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
		}
	} else {
		for _, m := range endToEndMetrics(res) {
			out.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return out.exitCode()
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// exitCode fails the process when an oracle failed, so a wrong outcome can
// never pass for a measurement.
func (r result) exitCode() int {
	if !r.Correct {
		return 1
	}
	return 0
}

// timeSetup runs the workload's ready path in fresh child processes and
// returns the median of their CPU time, at the reference speed: process
// start, package initialisation and the workload's own set-up (for
// control-plane, a server rebuilt, journaled and listening). The reference
// kernel runs between spawns.
func timeSetup(o options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	args := []string{"--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10),
		"--work", o.work, "--ready-probe"}
	times := make([]float64, 0, setupProbes)
	readings := []float64{refKernel()}
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return 0, err
		}
		times = append(times, (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds())
		readings = append(readings, refKernel())
	}
	return scaled(median(times), readings), nil
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the nearest-rank percentile of xs (0 for an empty slice).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p >= 100 {
		return s[len(s)-1]
	}
	if len(s)%2 == 0 && p == 50 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(p / 100 * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailPercentile is the highest of the usual reporting percentiles that
// still has at least ten samples beyond it among n.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 50
}
