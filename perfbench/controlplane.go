package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"kubeknots/internal/api"
	"kubeknots/internal/experiments"
	"kubeknots/internal/harvest"
	"kubeknots/internal/k8s"
	"kubeknots/internal/persist"
	"kubeknots/internal/sim"
	"kubeknots/internal/workloads"
)

const (
	// cpOps is the length of the mutator's script.
	cpOps = 1000
	// cpAdvanceEvery makes every fifth op a POST /v1/advance of cpAdvanceMS.
	cpAdvanceEvery = 5
	cpAdvanceMS    = 200
	// cpLCShare is the share of submissions that are latency-critical
	// inference pods; the rest are harvested Rodinia batch pods.
	cpLCShare = 0.75
	// cpSnapshotEvery is the apiserver's default snapshot cadence.
	cpSnapshotEvery = 64
	cpPageLimit     = 50
	// The script runs in segments of cpSegmentOps mutations. During each
	// the reader makes cpReadsPerOp reads per mutation, about as many as
	// it manages while the mutator works, so both finish together and the
	// work of a pass is fixed. The reference kernel runs between segments.
	cpSegmentOps = 100
	cpReadsPerOp = 8
)

// cpBoot is the control plane the workload runs: the paper's ten-node
// cluster under PP with the harvest controller on and checkpoint-resume.
func cpBoot(seed int64) persist.Bootstrap {
	return persist.Bootstrap{
		Kind:        "apiserver",
		Seed:        seed,
		Nodes:       10,
		Scheduler:   "pp",
		HarvestSpec: "on,checkpoint=true",
	}
}

// cpOp is one mutation of the script: an advance or a pod submission.
type cpOp struct {
	advance  bool
	manifest k8s.Manifest
}

// cpScript derives the mutator's fixed script from the seed.
func cpScript(seed int64) []cpOp {
	rng := rand.New(rand.NewSource(seed))
	models := workloads.InferenceNames()
	apps := workloads.RodiniaNames()
	ops := make([]cpOp, 0, cpOps)
	for i := 0; i < cpOps; i++ {
		if i%cpAdvanceEvery == cpAdvanceEvery-1 {
			ops = append(ops, cpOp{advance: true})
			continue
		}
		var m k8s.Manifest
		if rng.Float64() < cpLCShare {
			m = k8s.Manifest{
				Name:     fmt.Sprintf("lc-%04d", i),
				Workload: k8s.WorkloadRef{Kind: "inference", Name: models[rng.Intn(len(models))], Batch: 1 << rng.Intn(2)},
				Priority: k8s.PriorityLatencyCritical,
			}
		} else {
			m = k8s.Manifest{
				Name:      fmt.Sprintf("be-%04d", i),
				Workload:  k8s.WorkloadRef{Kind: "rodinia", Name: apps[rng.Intn(len(apps))]},
				Harvested: true,
			}
		}
		ops = append(ops, cpOp{manifest: m})
	}
	return ops
}

// cpServer is one in-process control plane serving HTTP over loopback.
type cpServer struct {
	srv    *api.Server
	mgr    *persist.Manager
	orch   *k8s.Orchestrator
	hctl   *harvest.Controller
	hs     *http.Server
	served chan error
	base   string
	// openS and recoverS time persist.Open and Server.Recover.
	openS, recoverS float64
}

// openServer is the apiserver's start-up sequence: rebuild from the
// bootstrap, recover whatever the state directory holds, and listen.
func openServer(boot persist.Bootstrap, dir string, tr *tracer) (*cpServer, error) {
	s, err := experiments.SchedulerByName(boot.Scheduler)
	if err != nil {
		return nil, err
	}
	var sched k8s.Scheduler = s
	if tr != nil {
		sched = tr.wrapScheduler(s, -1)
	}
	orch, hctl, err := persist.Rebuild(boot, sched)
	if err != nil {
		return nil, err
	}
	c := &cpServer{srv: api.NewServer(orch), orch: orch, hctl: hctl}
	if hctl != nil {
		c.srv.SetHarvest(hctl)
	}
	sp := tr.begin("persist.Open", tr.rootID())
	t0 := time.Now()
	c.mgr, err = persist.Open(dir, boot, persist.WithSnapshotEvery(cpSnapshotEvery))
	c.openS = time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("Server.Recover", tr.rootID())
	t0 = time.Now()
	_, err = c.srv.Recover(c.mgr)
	c.recoverS = time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		c.mgr.Close()
		return nil, err
	}
	return c, nil
}

// listen serves the API on an ephemeral loopback port.
func (c *cpServer) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	c.hs = &http.Server{Handler: c.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	c.served = make(chan error, 1)
	go func() { c.served <- c.hs.Serve(ln) }()
	c.base = "http://" + ln.Addr().String()
	return nil
}

// crash drops the server the way a killed process would: connections and
// the WAL file are closed, but no final snapshot is written (Server.Close
// is never called).
func (c *cpServer) crash() error {
	var err error
	if c.hs != nil {
		err = c.hs.Close()
		if serr := <-c.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
	}
	if merr := c.mgr.Close(); err == nil {
		err = merr
	}
	return err
}

// newClient is one closed-loop caller with its own keep-alive connection.
func newClient(base string) (*api.Client, *http.Transport) {
	t := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return api.NewClient(base, api.WithHTTPClient(&http.Client{Transport: t, Timeout: time.Minute})), t
}

func readyControlPlane(e *env) error {
	dir, err := e.freshDir("ready")
	if err != nil {
		return err
	}
	c, err := openServer(cpBoot(e.seed), dir, nil)
	if err != nil {
		return err
	}
	if err := c.listen(); err != nil {
		c.crash()
		return err
	}
	cl, t := newClient(c.base)
	_, err = cl.Nodes()
	t.CloseIdleConnections()
	if cerr := c.crash(); err == nil {
		err = cerr
	}
	return err
}

// cpRoutes are the client-visible operations, in report order.
var cpRoutes = []string{"submit", "advance", "pods", "nodes", "qos", "events"}

// cpStats holds one control-plane pass's client-side measurements.
type cpStats struct {
	latMS         map[string][]float64 // per route
	recoveryS     float64              // persist.Open + Rebuild + Server.Recover, as measured
	openS         float64              // persist.Open at recovery
	replayS       float64              // Server.Recover at recovery
	snapshotBytes int
}

func controlPlanePass(e *env, seed int64, tr *tracer) *passOut {
	out := &passOut{cp: &cpStats{latMS: map[string][]float64{}}}
	if err := controlPlaneRun(e, seed, tr, out); err != nil {
		out.fail("control-plane: %v", err)
	}
	return out
}

func controlPlaneRun(e *env, seed int64, tr *tracer, out *passOut) error {
	dir, err := e.freshDir("cp")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	boot := cpBoot(seed)
	script := cpScript(seed)
	c, err := openServer(boot, dir, tr)
	if err != nil {
		return err
	}
	if err := c.listen(); err != nil {
		c.crash()
		return err
	}

	var mu sync.Mutex // guards out and the latency map across the two clients
	record := func(route string, sp span, start time.Time, err error) {
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		tr.end(sp)
		mu.Lock()
		defer mu.Unlock()
		out.attempted++
		out.cp.latMS[route] = append(out.cp.latMS[route], ms)
		if err != nil {
			// A 409 is a failure too: the lone mutator never contends.
			out.fail("%s: %v", route, err)
		}
	}

	rd, rdT := newClient(c.base)
	mut, mutT := newClient(c.base)
	acked := make(map[string]bool)
	var ackedMS int64
	reads, tok := 0, "" // the reader's place in its route cycle and pod pages
	clock := startRefClock()
	for first := 0; first < len(script); first += cpSegmentOps {
		seg := script[first:min(first+cpSegmentOps, len(script))]
		var wg sync.WaitGroup
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for ; n > 0; n-- {
				route := cpRoutes[2+reads%4]
				reads++
				sp := tr.begin("GET /v1/"+route, tr.rootID())
				t0 := time.Now()
				var err error
				switch route {
				case "pods":
					var page api.PodPage
					page, err = rd.PodsPage("", tok, cpPageLimit)
					tok = page.Continue
				case "nodes":
					_, err = rd.Nodes()
				case "qos":
					_, err = rd.QoS()
				case "events":
					_, err = rd.EventsPage("", "", "", cpPageLimit)
				}
				record(route, sp, t0, err)
			}
		}(cpReadsPerOp * len(seg))

		for _, op := range seg {
			if op.advance {
				sp := tr.begin("POST /v1/advance", tr.rootID())
				tr.setCause(sp.id)
				t0 := time.Now()
				_, _, _, err := mut.Advance(cpAdvanceMS * sim.Millisecond)
				tr.setCause(-1)
				record("advance", sp, t0, err)
				if err == nil {
					ackedMS += cpAdvanceMS
				}
				continue
			}
			sp := tr.begin("POST /v1/pods", tr.rootID())
			t0 := time.Now()
			_, err := mut.SubmitManifest(op.manifest)
			record("submit", sp, t0, err)
			if err == nil {
				acked[op.manifest.Name] = true
			}
		}
		wg.Wait()
		clock.lap()
	}
	rdT.CloseIdleConnections()
	mutT.CloseIdleConnections()

	// Both clients are done, so the orchestrator is quiescent.
	want := persist.CaptureState(c.orch, c.hctl)
	out.cp.snapshotBytes = c.mgr.StatsSnapshot().LastSnapshotBytes
	if err := c.crash(); err != nil {
		return fmt.Errorf("crash: %w", err)
	}

	clock.skip()
	t0 := time.Now()
	r, err := openServer(boot, dir, tr)
	out.cp.recoveryS = time.Since(t0).Seconds()
	clock.lap()
	out.cpuS, out.hostCPUS, out.wallS = clock.refCPUS(), clock.cpuS, clock.wallS
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	out.cp.openS, out.cp.replayS = r.openS, r.recoverS
	defer r.crash()

	out.outcome.Runs = []runOutcome{clusterOutcome(fmt.Sprintf("control-plane/PP/seed=%d", seed), r.orch)}
	out.jcts = completionTimes(r.orch)
	out.waits = queueWaits(r.orch)
	if err := persist.VerifyState(persist.CaptureState(r.orch, r.hctl), want); err != nil {
		out.problems = append(out.problems, fmt.Sprintf("recovered state differs from the state before the crash: %v", err))
	}
	if got := int64(r.orch.Eng.Now()); got != ackedMS {
		out.problems = append(out.problems, fmt.Sprintf("recovered clock %d ms, acknowledged advances total %d ms", got, ackedMS))
	}
	// Every acknowledged submission must be served by the recovered API.
	if err := r.listen(); err != nil {
		return err
	}
	cl, t := newClient(r.base)
	pods, err := cl.Pods()
	t.CloseIdleConnections()
	if err != nil {
		return fmt.Errorf("list pods after recovery: %w", err)
	}
	for _, p := range pods {
		delete(acked, p.Name)
	}
	if len(acked) > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d acknowledged pods missing after recovery", len(acked)))
	}
	return nil
}
