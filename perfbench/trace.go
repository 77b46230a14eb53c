package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"kubeknots/internal/dlsim"
	"kubeknots/internal/k8s"
	"kubeknots/internal/knots"
	"kubeknots/internal/obs"
	"kubeknots/internal/sim"
)

// maxSpans bounds the spans kept for the span file; the statistics the
// per-layer metrics need are accumulated for every span regardless.
const maxSpans = 1 << 19

// span is an open span: what begin returns and end closes.
type span struct {
	name   string
	id     int32
	parent int32
	start  time.Time
}

// spanRec is a closed span as kept in memory; times are nanoseconds since
// the tracer's epoch.
type spanRec struct {
	name          uint16
	id, parent    int32
	start, finish int64
}

// spanStat accumulates every span of one name.
type spanStat struct {
	n       int
	totalNS int64
}

// tracer records spans around every call the benchmark makes into a layer.
// All methods are no-ops on a nil tracer, so untraced passes run the same
// code without recording anything.
type tracer struct {
	mu      sync.Mutex
	runID   string
	epoch   time.Time
	nextID  int32
	root    int32 // the current pass's span
	cause   atomic.Int32
	keep    bool // retain spans: only the first traced pass is written out
	names   []string
	nameIdx map[string]uint16
	spans   []spanRec
	dropped int
	stats   map[string]*spanStat

	// Scheduling rounds seen by the wrapper.
	roundsUS []float64
	offered  int
	placed   int
}

func newTracer(workload string, seed int64) *tracer {
	t := &tracer{
		runID:   fmt.Sprintf("%s-%d-%d-%d", workload, seed, os.Getpid(), time.Now().UnixNano()),
		epoch:   time.Now(),
		root:    -1,
		keep:    true,
		nameIdx: map[string]uint16{},
		stats:   map[string]*spanStat{},
	}
	t.cause.Store(-1)
	return t
}

func (t *tracer) rootID() int32 {
	if t == nil {
		return -1
	}
	return t.root
}

// setCause marks id as the span that causes work on other goroutines (the
// in-flight POST /v1/advance drives the server's scheduling rounds).
func (t *tracer) setCause(id int32) {
	if t != nil {
		t.cause.Store(id)
	}
}

func (t *tracer) begin(name string, parent int32) span {
	if t == nil {
		return span{}
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return span{name: name, id: id, parent: parent, start: time.Now()}
}

func (t *tracer) end(s span) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Now()
	d := now.Sub(s.start)
	t.mu.Lock()
	st := t.stats[s.name]
	if st == nil {
		st = &spanStat{}
		t.stats[s.name] = st
	}
	st.n++
	st.totalNS += int64(d)
	if t.keep {
		if len(t.spans) < maxSpans {
			idx, ok := t.nameIdx[s.name]
			if !ok {
				idx = uint16(len(t.names))
				t.names = append(t.names, s.name)
				t.nameIdx[s.name] = idx
			}
			t.spans = append(t.spans, spanRec{name: idx, id: s.id, parent: s.parent,
				start: int64(s.start.Sub(t.epoch)), finish: int64(now.Sub(t.epoch))})
		} else {
			t.dropped++
		}
	}
	t.mu.Unlock()
	return d
}

// stat returns the count and total seconds of the spans named name.
func (t *tracer) stat(name string) (int, float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.stats[name]; st != nil {
		return st.n, float64(st.totalNS) / 1e9
	}
	return 0, 0
}

// tracedScheduler forwards to a k8s.Scheduler and records each scheduling
// round. It only reads the queue length and the returned decisions.
type tracedScheduler struct {
	inner  k8s.Scheduler
	tr     *tracer
	parent int32 // -1: the tracer's current cause
}

func (t *tracer) wrapScheduler(s k8s.Scheduler, parent int32) k8s.Scheduler {
	return &tracedScheduler{inner: s, tr: t, parent: parent}
}

func (s *tracedScheduler) Name() string { return s.inner.Name() }

func (s *tracedScheduler) Schedule(now sim.Time, pending []*k8s.Pod, snap *knots.Snapshot) []k8s.Decision {
	parent := s.parent
	if parent < 0 {
		parent = s.tr.cause.Load()
	}
	offered := len(pending)
	sp := s.tr.begin("Schedule", parent)
	ds := s.inner.Schedule(now, pending, snap)
	d := s.tr.end(sp)
	placed := 0
	for _, dec := range ds {
		if !dec.Reject && dec.GPU != nil {
			placed++
		}
	}
	s.tr.mu.Lock()
	s.tr.roundsUS = append(s.tr.roundsUS, float64(d)/float64(time.Microsecond))
	s.tr.offered += offered
	s.tr.placed += placed
	s.tr.mu.Unlock()
	return ds
}

// tracedPolicy forwards to a dlsim.Policy and records each call.
type tracedPolicy struct {
	inner  dlsim.Policy
	tr     *tracer
	parent int32
}

func (t *tracer) wrapPolicy(p dlsim.Policy, parent int32) dlsim.Policy {
	return &tracedPolicy{inner: p, tr: t, parent: parent}
}

func (p *tracedPolicy) Name() string       { return p.inner.Name() }
func (p *tracedPolicy) SharesMemory() bool { return p.inner.SharesMemory() }

func (p *tracedPolicy) PlaceDLT(now sim.Time, s *dlsim.State) {
	sp := p.tr.begin("PlaceDLT", p.parent)
	p.inner.PlaceDLT(now, s)
	p.tr.end(sp)
}

func (p *tracedPolicy) ServeDLI(now sim.Time, s *dlsim.State, q *dlsim.DLIQuery) sim.Time {
	sp := p.tr.begin("ServeDLI", p.parent)
	lat := p.inner.ServeDLI(now, s, q)
	p.tr.end(sp)
	return lat
}

// writeSpans writes the kept spans as JSON lines, one per span, every line
// carrying the run's ID.
func writeSpans(t *tracer, path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Run     string `json:"run"`
		ID      int32  `json:"id"`
		Parent  int32  `json:"parent"`
		Name    string `json:"name"`
		StartUS int64  `json:"start_us"`
		EndUS   int64  `json:"end_us"`
	}
	for _, s := range t.spans {
		if err := enc.Encode(line{t.runID, s.id, s.parent, t.names[s.name], s.start / 1e3, s.finish / 1e3}); err != nil {
			f.Close()
			return err
		}
	}
	if t.dropped > 0 {
		fmt.Fprintf(w, "{\"run\":%q,\"dropped\":%d}\n", t.runID, t.dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counters flattens the default obs registry: every family's total under
// its name, every labelled child under name{label=value}, and histogram
// sums under the family name (and counts under name_count).
func counters() map[string]float64 {
	out := map[string]float64{}
	for _, fam := range obs.Default().Snapshot() {
		for _, s := range fam.Samples {
			v := s.Value
			if fam.Type == obs.HistogramType {
				v = s.Sum
				out[fam.Name+"_count"] += float64(s.Count)
			}
			out[fam.Name] += v
			for i, l := range fam.Labels {
				out[fam.Name+"{"+l+"="+s.LabelValues[i]+"}"] += v
			}
		}
	}
	return out
}

// counterDelta subtracts two counters() readings.
func counterDelta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
