package knots

import (
	"testing"

	"kubeknots/internal/cluster"
	"kubeknots/internal/sim"
	"kubeknots/internal/workloads"
)

func testCluster() *cluster.Cluster {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 3
	return cluster.New(cfg)
}

func TestMonitorSamplesFiveMetrics(t *testing.T) {
	cl := testCluster()
	m := NewMonitor(cl, 0)
	cl.Tick(0, 10*sim.Millisecond)
	m.Sample(0)
	db := m.NodeDB(0)
	if db == nil {
		t.Fatal("node DB missing")
	}
	names := db.SeriesNames()
	if len(names) != len(Metrics) {
		t.Fatalf("series per node = %d, want %d (%v)", len(names), len(Metrics), names)
	}
}

func TestMonitorSeriesWindow(t *testing.T) {
	cl := testCluster()
	m := NewMonitor(cl, 0)
	g := cl.GPUs()[0]
	p := workloads.RodiniaProfile(workloads.KMeans)
	c := &cluster.Container{ID: "a", Class: p.Class, Inst: p.NewInstance(nil)}
	if err := g.Place(0, c, 3000); err != nil {
		t.Fatal(err)
	}
	for now := sim.Time(0); now < 6*sim.Second; now += 10 * sim.Millisecond {
		cl.Tick(now, 10*sim.Millisecond)
		m.Sample(now)
	}
	vals := m.Series(g, MetricMem, 6*sim.Second, 5*sim.Second)
	if len(vals) < 400 {
		t.Fatalf("5s window at 10ms heartbeat = %d points, want ~500", len(vals))
	}
	last := vals[len(vals)-1]
	if last <= 0 {
		t.Fatal("memory series should show live usage")
	}
	if got := m.Series(g, "bogus", 6*sim.Second, sim.Second); len(got) != 0 {
		t.Fatal("unknown metric should be empty")
	}
}

func TestAggregatorSnapshot(t *testing.T) {
	cl := testCluster()
	m := NewMonitor(cl, 0)
	a := NewAggregator(m)
	g := cl.GPUs()[1]
	p := workloads.RodiniaProfile(workloads.LUD)
	c := &cluster.Container{ID: "x", Class: p.Class, Inst: p.NewInstance(nil)}
	if err := g.Place(0, c, 3500); err != nil {
		t.Fatal(err)
	}
	for now := sim.Time(0); now < 2*sim.Second; now += 10 * sim.Millisecond {
		cl.Tick(now, 10*sim.Millisecond)
		m.Sample(now)
	}
	snap := a.Snapshot(2 * sim.Second)
	if len(snap.Stats) != 3 {
		t.Fatalf("stats = %d, want 3", len(snap.Stats))
	}
	st := snap.Stats[1]
	if st.GPU != g {
		t.Fatal("stats order should be node-major")
	}
	if st.FreeReservableMB != g.MemCapMB-3500 {
		t.Fatalf("FreeReservableMB = %v", st.FreeReservableMB)
	}
	if len(st.MemSeries) == 0 || len(st.SMSeries) == 0 || len(st.BWSeries) == 0 {
		t.Fatal("snapshot series missing")
	}
	if st.Obs.Containers != 1 {
		t.Fatalf("Obs.Containers = %d", st.Obs.Containers)
	}
}

// TestSnapshotSeriesLength pins the current snapshot series length: a 5 s
// window cut into integer 78 ms buckets (DefaultWindow/DefaultMaxPoints)
// over the closed interval [now−5s, now] yields 65 points at a 10 ms
// heartbeat, one more than DefaultMaxPoints. Capping it at 64 would move
// every correlation and forecast input, so a change here must be deliberate.
func TestSnapshotSeriesLength(t *testing.T) {
	cl := testCluster()
	m := NewMonitor(cl, 0)
	a := NewAggregator(m)
	for now := sim.Time(0); now <= 8*sim.Second; now += 10 * sim.Millisecond {
		cl.Tick(now, 10*sim.Millisecond)
		m.Sample(now)
	}
	for _, st := range a.Snapshot(8 * sim.Second).Stats {
		for name, s := range map[string][]float64{"mem": st.MemSeries, "sm": st.SMSeries, "bw": st.BWSeries} {
			if len(s) != 65 {
				t.Fatalf("%s %s series has %d points, want 65", st.GPU.ID(), name, len(s))
			}
		}
	}
}

func TestSnapshotActiveExcludesSleeping(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 2
	cfg.DeepSleepAfter = sim.Second
	cl := cluster.New(cfg)
	m := NewMonitor(cl, 0)
	a := NewAggregator(m)
	// Keep node 0 busy, let node 1 sleep.
	g := cl.GPUs()[0]
	p := workloads.RodiniaProfile(workloads.KMeans)
	c := &cluster.Container{ID: "busy", Class: p.Class, Inst: p.NewInstance(nil)}
	if err := g.Place(0, c, 3000); err != nil {
		t.Fatal(err)
	}
	for now := sim.Time(0); now < 3*sim.Second; now += 100 * sim.Millisecond {
		cl.Tick(now, 100*sim.Millisecond)
		m.Sample(now)
	}
	// Sleeping devices stay in the snapshot (placement may wake them), but
	// only the busy one reads as awake — the paper's "active GPU nodes".
	snap := a.Snapshot(3 * sim.Second)
	if len(snap.Stats) != len(cl.GPUs()) {
		t.Fatalf("stats = %d, want every GPU (%d)", len(snap.Stats), len(cl.GPUs()))
	}
	var awake []*cluster.GPU
	for _, st := range snap.Stats {
		if !st.Obs.Asleep {
			awake = append(awake, st.GPU)
		}
	}
	if len(awake) != 1 || awake[0] != g {
		t.Fatalf("awake = %d GPUs, want only the busy one", len(awake))
	}
}
