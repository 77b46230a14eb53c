// Package knots is the paper's core runtime contribution: the GPU-aware
// orchestration layer (Section IV-A). A node-level Monitor samples the five
// NVML metrics of every GPU each heartbeat into that node's time-series
// database (the paper uses pyNVML + InfluxDB); the head-node Aggregator
// queries all node databases every heartbeat and exposes cluster-wide
// snapshots plus trailing metric windows, which the CBP and PP schedulers
// consume for correlation checks and ARIMA forecasting.
package knots

import (
	"fmt"
	"sync"

	"kubeknots/internal/cluster"
	"kubeknots/internal/sim"
	"kubeknots/internal/tsdb"
)

// Metric names recorded per GPU, mirroring the five pyNVML counters.
const (
	MetricSM    = "sm_util"     // streaming-multiprocessor utilization %
	MetricMem   = "mem_used_mb" // live device memory footprint
	MetricPower = "power_w"     // instantaneous draw
	MetricTx    = "tx_mbps"     // host→device bandwidth
	MetricRx    = "rx_mbps"     // device→host bandwidth
)

// Metrics lists the five recorded metric names.
var Metrics = []string{MetricSM, MetricMem, MetricPower, MetricTx, MetricRx}

// seriesName keys a GPU metric within its node's database.
func seriesName(g *cluster.GPU, metric string) string {
	return fmt.Sprintf("g%d/%s", g.Index, metric)
}

// gpuKeys holds one device's five pre-formatted series keys. Formatting them
// on every heartbeat (5 × fmt.Sprintf per GPU) was the single largest
// allocation source in a scheduling round; the monitor builds this table once
// at construction instead.
type gpuKeys struct {
	sm, mem, power, tx, rx string
}

func newGPUKeys(g *cluster.GPU) *gpuKeys {
	return &gpuKeys{
		sm:    seriesName(g, MetricSM),
		mem:   seriesName(g, MetricMem),
		power: seriesName(g, MetricPower),
		tx:    seriesName(g, MetricTx),
		rx:    seriesName(g, MetricRx),
	}
}

func (k *gpuKeys) key(metric string) string {
	switch metric {
	case MetricSM:
		return k.sm
	case MetricMem:
		return k.mem
	case MetricPower:
		return k.power
	case MetricTx:
		return k.tx
	case MetricRx:
		return k.rx
	}
	return ""
}

// Monitor is the per-node sampling daemon (one logical instance serves the
// whole simulated cluster, holding one DB per node as the paper holds one
// InfluxDB per worker).
type Monitor struct {
	Cluster *cluster.Cluster
	dbs     map[int]*tsdb.DB
	keys    map[*cluster.GPU]*gpuKeys // pre-formatted series names

	// mu guards the liveness state below; the sampling DBs lock themselves.
	mu         sync.RWMutex
	down       map[int]bool
	lastSample map[int]sim.Time
	lastObs    map[*cluster.GPU]cluster.Observation
}

// NewMonitor creates a monitor with one node-local DB per node; capacity is
// the per-series ring size (0 = tsdb.DefaultCapacity).
func NewMonitor(cl *cluster.Cluster, capacity int) *Monitor {
	m := &Monitor{
		Cluster:    cl,
		dbs:        make(map[int]*tsdb.DB),
		keys:       make(map[*cluster.GPU]*gpuKeys),
		down:       make(map[int]bool),
		lastSample: make(map[int]sim.Time),
		lastObs:    make(map[*cluster.GPU]cluster.Observation),
	}
	for _, g := range cl.GPUs() {
		if m.dbs[g.Node] == nil {
			m.dbs[g.Node] = tsdb.New(capacity)
		}
		m.keys[g] = newGPUKeys(g)
	}
	return m
}

// seriesKey returns the cached series name for a device metric, formatting
// fresh only for devices unknown at construction (there are none in practice).
func (m *Monitor) seriesKey(g *cluster.GPU, metric string) string {
	if k := m.keys[g]; k != nil {
		if s := k.key(metric); s != "" {
			return s
		}
	}
	return seriesName(g, metric)
}

// Sample records every GPU's current Observation into its node database.
// Call once per heartbeat. Nodes marked down (telemetry dropout or crash)
// are skipped, so their databases — and the head node's view — go stale.
func (m *Monitor) Sample(now sim.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mHeartbeats.Inc()
	for _, g := range m.Cluster.GPUs() {
		if m.down[g.Node] {
			continue
		}
		db := m.dbs[g.Node]
		o := g.Obs
		// keys is immutable after construction and covers every device
		// (Cluster.GPUs is fixed at cluster.New), so lock-free reads are safe.
		k := m.keys[g]
		db.Append(k.sm, now, o.SMPct)
		db.Append(k.mem, now, o.MemUsedMB)
		db.Append(k.power, now, o.PowerW)
		db.Append(k.tx, now, o.TxMBps)
		db.Append(k.rx, now, o.RxMBps)
		m.lastSample[g.Node] = now
		m.lastObs[g] = o
		mGPUSamples.Inc()
	}
}

// SetNodeDown marks one node's monitor down (true) or back up (false).
// While down the node is not sampled.
func (m *Monitor) SetNodeDown(node int, down bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if down {
		m.down[node] = true
	} else {
		delete(m.down, node)
	}
}

// NodeDown reports whether a node's monitor is marked down.
func (m *Monitor) NodeDown(node int) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.down[node]
}

// LastSample returns when a node last reported, and whether it ever has.
func (m *Monitor) LastSample(node int) (sim.Time, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	at, ok := m.lastSample[node]
	return at, ok
}

// LastObs returns a device's last sampled observation — what a stale head
// node still believes about it.
func (m *Monitor) LastObs(g *cluster.GPU) (cluster.Observation, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	o, ok := m.lastObs[g]
	return o, ok
}

// NodeDB exposes a node's time-series database.
func (m *Monitor) NodeDB(node int) *tsdb.DB { return m.dbs[node] }

// Series returns the trailing window of one GPU metric, oldest first.
func (m *Monitor) Series(g *cluster.GPU, metric string, now, window sim.Time) []float64 {
	db := m.dbs[g.Node]
	if db == nil {
		return nil
	}
	return db.Values(m.seriesKey(g, metric), now-window, now)
}

// GPUStat is the aggregator's per-device view handed to schedulers.
type GPUStat struct {
	GPU              *cluster.GPU
	Obs              cluster.Observation
	FreeReservableMB float64
	// Resident lists the device's current containers (labels and classes
	// feed the k8s affinity rules).
	Resident []*cluster.Container
	// Trailing five-second windows of the metrics the schedulers use.
	MemSeries []float64
	SMSeries  []float64
	BWSeries  []float64
	// Stale marks telemetry older than the aggregator's StaleAfter bound:
	// Obs is the last sample the node delivered, not live state. Schedulers
	// must not trust correlation or forecasts built on a rotten window.
	Stale bool
}

// Snapshot is the cluster-wide utilization view at one heartbeat.
type Snapshot struct {
	At    sim.Time
	Stats []GPUStat // node-major stable order
	// DeadNodes lists nodes excluded from Stats because they missed the
	// aggregator's liveness deadline (no heartbeat within DeadAfter).
	DeadNodes []int
}

// Aggregator is the head-node utilization aggregator.
type Aggregator struct {
	Monitor *Monitor
	// StaleAfter, when positive, marks a node's stats Stale once its last
	// heartbeat is older than this (degraded-mode scheduling input).
	StaleAfter sim.Time
	// DeadAfter, when positive, excludes a node from snapshots entirely once
	// it has been silent this long — heartbeat-based liveness (typically
	// K × heartbeat). 0 disables liveness, preserving the always-healthy
	// baseline byte-for-byte.
	DeadAfter sim.Time

	// prevStale/prevDead remember each node's liveness state from the last
	// snapshot so boundary crossings count once, not once per heartbeat.
	// curStale/curDead are the double-buffered working sets, swapped with
	// prev* at the end of every snapshot instead of reallocated.
	prevStale map[int]bool
	prevDead  map[int]bool
	curStale  map[int]bool
	curDead   map[int]bool

	// Snapshot arenas (see Snapshot): every per-heartbeat cluster view is
	// carved out of these reused backing slices instead of fresh allocations.
	stats []GPUStat
	dead  []int
	vals  []float64
	conts []*cluster.Container
	pts   []tsdb.Point
}

// DefaultWindow is the paper's five-second scheduling window.
const DefaultWindow = 5 * sim.Second

// DefaultMaxPoints sets the snapshot series resolution: the window is
// mean-downsampled into buckets DefaultWindow/DefaultMaxPoints wide — the
// paper's "sliding window consists of few data points", which also keeps
// per-round scheduling cost flat. It does not cap the series length: the
// integer bucket width tiles the closed window [now−DefaultWindow, now] with
// one bucket to spare, so a densely sampled series has 65 points (78 ms
// buckets over 5 s).
const DefaultMaxPoints = 64

// snapshotBucket is the downsampling bucket width of every snapshot series.
const snapshotBucket = DefaultWindow / DefaultMaxPoints

// NewAggregator wraps a monitor.
func NewAggregator(m *Monitor) *Aggregator {
	return &Aggregator{Monitor: m}
}

// seriesInto appends the downsampled trailing window of one series onto the
// value arena and returns the appended sub-slice, capacity-capped so later
// arena growth cannot clobber it.
func (a *Aggregator) seriesInto(db *tsdb.DB, key string, now sim.Time) []float64 {
	start := len(a.vals)
	a.pts = db.DownsampleInto(a.pts[:0], key, now-DefaultWindow, now, snapshotBucket)
	for _, p := range a.pts {
		a.vals = append(a.vals, p.Value)
	}
	if len(a.vals) == start {
		return nil
	}
	return a.vals[start:len(a.vals):len(a.vals)]
}

// age returns how long a node has been silent. Never-sampled nodes count
// from the start of the run, so a node that is down from t=0 still ages out.
func (a *Aggregator) age(node int, now sim.Time) sim.Time {
	last, ok := a.Monitor.LastSample(node)
	if !ok {
		last = 0
	}
	return now - last
}

// Snapshot queries every node database for the trailing window and returns
// the cluster view. Failed devices are never candidates; with liveness
// configured, silent nodes' stats go Stale and then drop out entirely, so
// one dead worker blinds the scheduler to that worker only — never to the
// surviving cluster.
//
// The returned snapshot's slices (Stats, DeadNodes, each stat's Resident and
// metric series) are carved out of per-aggregator arenas and remain valid
// only until the next Snapshot call on the same aggregator. Every current
// consumer — a scheduling round, a stats handler render — finishes with one
// snapshot before requesting the next; callers needing longer retention must
// copy. This keeps the per-heartbeat aggregation allocation-free once the
// arenas are warm.
func (a *Aggregator) Snapshot(now sim.Time) *Snapshot {
	a.stats = a.stats[:0]
	a.dead = a.dead[:0]
	a.vals = a.vals[:0]
	a.conts = a.conts[:0]
	deadSeen := clearNodeSet(a.curDead)
	staleSeen := clearNodeSet(a.curStale)
	m := a.Monitor
	cl := m.Cluster
	for node := 0; node < cl.Cfg.Nodes; node++ {
		gpus := cl.NodeGPUs(node)
		if len(gpus) == 0 {
			continue
		}
		// Liveness first: a crashed node (whose devices are also failed) must
		// still be reported dead, not silently skipped.
		age := a.age(node, now)
		if a.DeadAfter > 0 && age > a.DeadAfter {
			if !deadSeen[node] {
				deadSeen[node] = true
				a.dead = append(a.dead, node)
			}
			continue
		}
		stale := a.StaleAfter > 0 && age > a.StaleAfter
		db := m.NodeDB(node)
		for _, g := range gpus {
			if g.Failed() {
				continue
			}
			obs := g.Obs
			if stale {
				staleSeen[node] = true
				// The head node only knows what the node last reported.
				if last, ok := m.LastObs(g); ok {
					obs = last
				}
			}
			res0 := len(a.conts)
			a.conts = append(a.conts, g.Containers()...)
			st := GPUStat{
				GPU: g,
				Obs: obs,
				// Reservations are head-node binding state, known even when
				// the node's telemetry is not.
				FreeReservableMB: g.FreeReservableMB(),
				Resident:         a.conts[res0:len(a.conts):len(a.conts)],
				MemSeries:        a.seriesInto(db, m.seriesKey(g, MetricMem), now),
				SMSeries:         a.seriesInto(db, m.seriesKey(g, MetricSM), now),
				Stale:            stale,
			}
			tx := a.seriesInto(db, m.seriesKey(g, MetricTx), now)
			rx := a.seriesInto(db, m.seriesKey(g, MetricRx), now)
			if len(tx) == len(rx) && len(tx) > 0 {
				bw0 := len(a.vals)
				for i := range tx {
					a.vals = append(a.vals, tx[i]+rx[i])
				}
				st.BWSeries = a.vals[bw0:len(a.vals):len(a.vals)]
			}
			a.stats = append(a.stats, st)
		}
	}
	snap := &Snapshot{At: now, Stats: a.stats}
	if len(a.dead) > 0 {
		snap.DeadNodes = a.dead[:len(a.dead):len(a.dead)]
	}
	// Count liveness boundary crossings (fresh→stale, live→dead) exactly
	// once per transition. Pure telemetry: the snapshot itself is unchanged.
	for node := range staleSeen {
		if !a.prevStale[node] {
			mStaleTransitions.Inc()
		}
	}
	for node := range deadSeen {
		if !a.prevDead[node] {
			mDeadTransitions.Inc()
		}
	}
	// Swap the double buffers: current becomes previous, and the old previous
	// is cleared on its next turn as the working set.
	a.curStale, a.prevStale = a.prevStale, staleSeen
	a.curDead, a.prevDead = a.prevDead, deadSeen
	return snap
}

// clearNodeSet empties (or creates) a reusable node-ID set.
func clearNodeSet(m map[int]bool) map[int]bool {
	if m == nil {
		return make(map[int]bool)
	}
	for k := range m {
		delete(m, k)
	}
	return m
}
