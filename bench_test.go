package kubeknots

// The benchmark harness regenerates every table and figure of the paper's
// evaluation — one testing.B benchmark per artifact — and reports the
// headline scalar of each as a custom metric, so `go test -bench=. -benchmem`
// doubles as a reproduction sweep. Cluster benchmarks run a one-minute load
// window and the DL benchmarks use the reduced simulator scale to keep the
// sweep tractable; `go run ./cmd/kubeknots <fig>` prints the paper-scale
// rows.

import (
	"strconv"
	"strings"
	"testing"

	"kubeknots/internal/cluster"
	"kubeknots/internal/dlsim"
	"kubeknots/internal/experiments"
	"kubeknots/internal/forecast"
	"kubeknots/internal/harvest"
	"kubeknots/internal/k8s"
	"kubeknots/internal/knots"
	"kubeknots/internal/metrics"
	"kubeknots/internal/scheduler"
	"kubeknots/internal/sim"
	tracepkg "kubeknots/internal/trace"
	"kubeknots/internal/tsdb"
	"kubeknots/internal/workloads"
)

// benchClusterCfg is the reduced-horizon configuration for benchmarks.
func benchClusterCfg() experiments.ClusterConfig {
	return experiments.ClusterConfig{Horizon: sim.Minute}
}

func tableCell(b *testing.B, t *experiments.Table, row, col int) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(t.Rows[row][col], "x"), 64)
	if err != nil {
		b.Fatalf("cell [%d][%d] = %q: %v", row, col, t.Rows[row][col], err)
	}
	return v
}

func BenchmarkFig1(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig1()
	}
	b.ReportMetric(tableCell(b, t, 4, 1), "GPU-EE@50%")
}

func BenchmarkFig2(b *testing.B) {
	cfg := tracepkg.Small()
	var corr float64
	for i := 0; i < b.N; i++ {
		t := experiments.Fig2c(1, cfg)
		corr = tableCell(b, t, 0, 2)
		experiments.Fig2a(1, cfg)
		experiments.Fig2b(1, cfg)
	}
	b.ReportMetric(corr, "batch-core-mem-rho")
}

func BenchmarkFig3(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		rows = len(experiments.Fig3(0).Rows)
	}
	b.ReportMetric(float64(rows), "samples")
}

func BenchmarkFig4(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig4()
	}
	b.ReportMetric(tableCell(b, t, 0, 1), "TF-earmark-%")
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Table1().Rows) != 3 {
			b.Fatal("table1 must have 3 mixes")
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = experiments.Fig6(1, benchClusterCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(tableCell(b, t, 0, 1), "node1-p50-util")
}

func BenchmarkFig7(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig7(benchClusterCfg())
	}
	b.ReportMetric(tableCell(b, t, 9, 3), "mix3-max-COV")
}

func BenchmarkFig8(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = experiments.Fig8(1, benchClusterCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(tableCell(b, t, 0, 1), "node1-p50-util")
}

func BenchmarkFig9(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig9(benchClusterCfg())
	}
	// PP's cluster-wide p90 on App-Mix-1 — the headline utilization gain.
	b.ReportMetric(tableCell(b, t, 0, 3), "PP-mix1-p90-util")
}

func BenchmarkFig10a(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig10a(benchClusterCfg())
	}
	b.ReportMetric(tableCell(b, t, 0, 3), "PP-mix1-viol-per-kilo")
	b.ReportMetric(tableCell(b, t, 0, 1), "ResAg-mix1-viol-per-kilo")
}

func BenchmarkFig10b(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig10b(42)
	}
	b.ReportMetric(tableCell(b, t, 4, 1), "ARIMA-acc@1ms")
}

func BenchmarkFig11a(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig11a(benchClusterCfg())
	}
	b.ReportMetric(tableCell(b, t, 0, 3), "PP-mix1-energy-vs-uniform")
}

func BenchmarkFig11b(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = experiments.Fig11b(benchClusterCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(tableCell(b, t, 0, 2), "pairCOV-n1-n2")
}

func BenchmarkFig12a(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig12a(dlsim.Small())
	}
	b.ReportMetric(tableCell(b, t, 4, 4), "CBPPP-JCT-p50-hours")
}

func BenchmarkFig12b(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Fig12b(dlsim.Small())
	}
	b.ReportMetric(tableCell(b, t, 0, 4), "CBPPP-mix1-viol-per-hr")
}

func BenchmarkTable4(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.Table4(dlsim.Small())
	}
	b.ReportMetric(tableCell(b, t, 0, 1), "ResAg-avg-JCT-ratio")
	b.ReportMetric(tableCell(b, t, 2, 1), "Tiresias-avg-JCT-ratio")
}

func BenchmarkAblationCorrThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationCorrThreshold(benchClusterCfg(), 0.3, 0.5, 0.7)
	}
}

func BenchmarkAblationResizePercentile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationResizePercentile(benchClusterCfg(), 50, 80, 100)
	}
}

func BenchmarkAblationHeartbeat(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationHeartbeat(benchClusterCfg(), sim.Second, 10*sim.Millisecond)
	}
}

func BenchmarkAblationForecaster(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationForecaster(benchClusterCfg())
	}
}

// Micro-benchmarks on the hot paths.

func BenchmarkSpearman(b *testing.B) {
	x := workloads.RodiniaProfile(workloads.KMeans).MemSeries(sim.Second)
	y := workloads.RodiniaProfile(workloads.LUD).MemSeries(sim.Second)
	if len(x) > len(y) {
		x = x[:len(y)]
	} else {
		y = y[:len(x)]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metrics.SpearmanRho(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAR1Forecast(b *testing.B) {
	series := workloads.RodiniaProfile(workloads.KMeans).MemSeries(100 * sim.Millisecond)
	var m forecast.AR1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Fit(series); err != nil {
			b.Fatal(err)
		}
		m.Predict()
	}
}

func BenchmarkPPScheduleRound(b *testing.B) {
	mix, _ := workloads.MixByID(1)
	// One full short run exercises snapshotting + admission repeatedly.
	for i := 0; i < b.N; i++ {
		experiments.RunCluster(&scheduler.PP{}, mix, experiments.ClusterConfig{
			Horizon: 15 * sim.Second,
		})
	}
}

func BenchmarkAblationLearnedProfiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationLearnedProfiles(benchClusterCfg())
	}
}

func BenchmarkAblationSLOFraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationSLOFraction(benchClusterCfg(), 0.8, 1.0)
	}
}

func BenchmarkCBPScheduleRound(b *testing.B) {
	mix, _ := workloads.MixByID(1)
	for i := 0; i < b.N; i++ {
		experiments.RunCluster(&scheduler.CBP{}, mix, experiments.ClusterConfig{
			Horizon: 15 * sim.Second,
		})
	}
}

func BenchmarkAggregatorSnapshot(b *testing.B) {
	// One heartbeat of head-node work as the simulator runs it: every node
	// is sampled, then the aggregator re-reads every node's window into its
	// reused snapshot arenas.
	cl := cluster.New(cluster.DefaultConfig())
	mon := knots.NewMonitor(cl, 0)
	// Warm every series with a window of heartbeats so Snapshot walks real
	// data, then measure the per-heartbeat sample + extraction.
	now := sim.Time(0)
	for hb := 0; hb < 100; hb++ {
		now += 100 * sim.Millisecond
		mon.Sample(now)
	}
	agg := knots.NewAggregator(mon)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now += 100 * sim.Millisecond
		mon.Sample(now)
		agg.Snapshot(now)
	}
}

// benchRoundSnapshot builds a gpus-wide snapshot with residents on every
// third device and a pending queue, the fixture for the single-round
// benchmark (Schedule never mutates the cluster, so iterations repeat the
// identical round).
func benchRoundSnapshot(gpus, pods int) (*knots.Snapshot, []*k8s.Pod) {
	cfg := cluster.DefaultConfig()
	cfg.GPUsPerNode = 8
	cfg.Nodes = gpus / cfg.GPUsPerNode
	cl := cluster.New(cfg)
	mon := knots.NewMonitor(cl, 0)
	o := k8s.NewOrchestrator(sim.NewEngine(2), cl, scheduler.Uniform{}, k8s.Config{})
	for i, g := range cl.GPUs() {
		if i%3 == 0 {
			p := workloads.RodiniaProfile(workloads.KMeans)
			c := &cluster.Container{ID: "r" + strconv.Itoa(i), Class: p.Class, Inst: p.NewInstance(nil)}
			if err := g.Place(0, c, 500+float64(i%32)*10); err != nil {
				panic(err)
			}
		}
	}
	var now sim.Time
	for i := 0; i < 30; i++ {
		now += 100 * sim.Millisecond
		cl.Tick(now, 100*sim.Millisecond)
		mon.Sample(now)
	}
	snap := knots.NewAggregator(mon).Snapshot(now)
	names := workloads.RodiniaNames()
	queue := make([]*k8s.Pod, 0, pods)
	for i := 0; i < pods; i++ {
		queue = append(queue, o.NewPod(workloads.RodiniaProfile(names[i%len(names)]), nil))
	}
	return snap, queue
}

// BenchmarkPPScheduleRound512 times one PP scheduling round of 16 pending
// pods against a 512-GPU snapshot.
func BenchmarkPPScheduleRound512(b *testing.B) {
	snap, queue := benchRoundSnapshot(512, 16)
	var p scheduler.PP
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Schedule(snap.At, queue, snap)
	}
}

func BenchmarkTSDBWindowRead(b *testing.B) {
	db := tsdb.New(0)
	for i := 0; i < 5000; i++ {
		db.Append("m", sim.Time(i)*sim.Millisecond, float64(i%97))
	}
	var vals []float64
	var pts []tsdb.Point
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vals = db.ValuesInto(vals[:0], "m", 0, 5*sim.Second)
		pts = db.DownsampleInto(pts[:0], "m", 0, 5*sim.Second, 100*sim.Millisecond)
	}
	if len(vals) == 0 || len(pts) == 0 {
		b.Fatal("benchmark read nothing")
	}
}

// BenchmarkHarvestTick measures one 100 ms control interval of a
// harvest-enabled cluster: the controller's snapshot walk, watermark checks,
// and opportunistic admission of the pending harvested queue, on top of the
// ambient heartbeat and scheduling machinery the tick interleaves with.
func BenchmarkHarvestTick(b *testing.B) {
	eng := sim.NewEngine(1)
	cl := cluster.New(cluster.DefaultConfig())
	o := k8s.NewOrchestrator(eng, cl, &scheduler.PP{}, k8s.Config{})
	h := harvest.New(o, harvest.Config{Enabled: true, Checkpoint: true})
	o.Start()
	h.Start()
	// A standing queue of harvested batch pods keeps the admission path
	// busy: the headroom ceiling caps residency well below 64, so the
	// controller re-evaluates a non-empty queue every tick.
	prof := workloads.RodiniaProfile(workloads.Leukocyte)
	for i := 0; i < 64; i++ {
		p := o.NewPod(prof, nil)
		p.Priority = k8s.PriorityHarvested
		p.Harvested = true
		o.Submit(0, p)
	}
	now := 2 * sim.Second
	o.Run(now) // warm: monitors report, first admissions land
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now += 100 * sim.Millisecond
		o.Run(now)
	}
	if h.Counters().Admissions == 0 {
		b.Fatal("benchmark admitted nothing")
	}
}
