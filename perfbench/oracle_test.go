package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	if err := initRefKernel(); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// TestExpectedOutcomeGate runs the dl-sim pass at the default seed, checks
// it against the recorded outcome, then shows that one wrong expected value
// makes the run fail.
func TestExpectedOutcomeGate(t *testing.T) {
	want, err := loadExpected("dl-sim")
	if err != nil {
		t.Fatal(err)
	}
	got := dlPass(&env{seed: defaultSeed, work: t.TempDir()}, defaultSeed, nil)
	if got.failed != 0 {
		t.Fatalf("pass failed: %v", got.problems)
	}
	if err := checkExpected(want, got.outcome); err != nil {
		t.Fatalf("default-seed outcome does not match expected/dl-sim.json: %v", err)
	}

	wrong := outcome{Runs: append([]runOutcome(nil), want.Runs...)}
	wrong.Runs[0].Violations++
	if checkExpected(wrong, got.outcome) == nil {
		t.Fatal("a wrong expected violation count was accepted")
	}
	wrong.Runs[0] = want.Runs[0]
	wrong.Runs[len(wrong.Runs)-1].Digest = "0" + want.Runs[len(want.Runs)-1].Digest[1:]
	if checkExpected(wrong, got.outcome) == nil {
		t.Fatal("a wrong expected digest was accepted")
	}

	// A failed oracle turns into correct=false and a non-zero exit code.
	r := result{Correct: checkExpected(wrong, got.outcome) == nil, Attempted: 1}
	if r.exitCode() == 0 {
		t.Fatal("an incorrect result exits 0")
	}
}

// TestTracedPassIsReadOnly shows the span wrappers do not change what the
// simulation computes.
func TestTracedPassIsReadOnly(t *testing.T) {
	e := &env{seed: 5, work: t.TempDir()}
	plain := clusterPass(backlogRuns())(e, e.seed, nil)
	tr := newTracer("backlog", e.seed)
	traced := clusterPass(backlogRuns())(e, e.seed, tr)
	if !sameOutcome(plain.outcome, traced.outcome) {
		t.Fatalf("traced outcome differs:\n%+v\n%+v", plain.outcome, traced.outcome)
	}
	if n, _ := tr.stat("Schedule"); n == 0 {
		t.Fatal("no scheduling rounds were traced")
	}
}

// TestLayerOf pins how profile samples are charged to layers.
func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "kubeknots/internal/tsdb.(*DB).DownsampleInto", "kubeknots/internal/knots.(*Aggregator).Snapshot"}, "tsdb.read"},
		{[]string{"kubeknots/internal/tsdb.(*series).append", "kubeknots/internal/tsdb.(*DB).Append", "kubeknots/internal/knots.(*Monitor).Sample"}, "tsdb.append"},
		{[]string{"fmt.Sprintf", "kubeknots/internal/knots.(*Aggregator).rebuildNode", "kubeknots/internal/knots.(*Aggregator).Snapshot"}, "knots.snapshot"},
		{[]string{"kubeknots/internal/knots.(*Monitor).Sample", "kubeknots/internal/k8s.(*Orchestrator).heartbeat"}, "knots.sample"},
		{[]string{"kubeknots/internal/obs/span.NewIDGen"}, "obs"},
		{[]string{"kubeknots/internal/scheduler.(*PP).Schedule"}, "scheduler"},
		{[]string{"runtime.gcBgMarkWorker"}, "other"},
		{[]string{"main.refKernelOnce", "main.refKernel", "main.(*refClock).lap", "main.lapScheduler.Schedule", "kubeknots/internal/k8s.(*Orchestrator).schedule"}, "refkernel"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program in step:
// the same workloads, and exactly the metrics each mode prints, with the
// same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var b struct {
		Workloads []spec `json:"workloads"`
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, " | "); got != workloadNames() {
		t.Errorf("BENCHMARK.json workloads %q, program has %q", got, workloadNames())
	}
	r := &runResult{tracer: newTracer("x", 1), untraced: []passStats{{out: &passOut{}}}}
	for _, c := range []struct {
		kind string
		want []spec
		got  []named
	}{{"end_to_end", b.EndToEnd, endToEndMetrics(r)}, {"per_layer", b.PerLayer, perLayerMetrics(r)}} {
		have := map[string]string{}
		for _, m := range c.got {
			have[m.name] = m.unit
		}
		if len(have) != len(c.want) {
			t.Errorf("%s: program prints %d metrics, BENCHMARK.json lists %d", c.kind, len(have), len(c.want))
		}
		for _, m := range c.want {
			if u, ok := have[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s [%s] in BENCHMARK.json, program prints unit %q (present %v)", c.kind, m.Name, m.Unit, u, ok)
			}
		}
	}
}
