// Command apiserver runs the Kube-Knots control plane over HTTP: a
// simulated GPU cluster behind the PP scheduler, accepting JSON pod
// manifests and explicit clock advances, so scenarios can be driven with
// curl and replayed deterministically:
//
//	apiserver -nodes 10 -scheduler pp -addr :8088
//
//	curl -X POST :8088/v1/pods -d '{"name":"j1","workload":{"kind":"rodinia","name":"kmeans"}}'
//	curl -X POST :8088/v1/advance -d '{"ms":60000}'
//	curl :8088/v1/pods/j1
//	curl :8088/v1/nodes
//	curl :8088/v1/qos
//	curl :8088/v1/state       # persistence status
//	curl :8088/metrics        # Prometheus text exposition
//	curl :8088/debug/vars     # expvar JSON
//	curl :8088/debug/pprof/   # runtime profiles
//
// API routes live under /v1 only; an unversioned path such as /pods answers
// 404.
//
// With -state-dir the control plane is durable: every accepted mutation is
// appended to an fsynced command journal before it executes, a checkpoint
// of the observable state is written every -snapshot-every commands, and
// the journal is replayed on restart — a crash or SIGKILL loses no
// acknowledged mutation, and the replay is byte-verified against the
// checkpoint's recorded state. Without -state-dir behaviour is unchanged.
//
// SIGINT/SIGTERM shut the server down gracefully, draining in-flight
// requests (and writing a final checkpoint) before exiting. The log line
// "listening on ADDR" names the bound address, so -addr 127.0.0.1:0 picks
// a free port and reports it.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os/signal"
	"syscall"
	"time"

	"kubeknots/internal/api"
	"kubeknots/internal/buildinfo"
	"kubeknots/internal/experiments"
	"kubeknots/internal/obs"
	"kubeknots/internal/persist"
)

var (
	addr   = flag.String("addr", ":8088", "listen address")
	nodes  = flag.Int("nodes", 10, "GPU nodes in the simulated cluster")
	sched  = flag.String("scheduler", "pp", "scheduler: uniform | resag | cbp | pp")
	hetero = flag.Bool("hetero", false, "use the P100/V100/M40/K80 heterogeneous pool")
	seed   = flag.Int64("seed", 1, "deterministic seed")
	drain  = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	hspec  = flag.String("harvest", "", `harvest controller spec, e.g. "on,watermark=0.85,checkpoint=true" ("" = disabled; keys: watermark headroom interval checkpoint cost priority max-preempt max-admit sm-ceiling qos-window)`)

	stateDir  = flag.String("state-dir", "", "directory for checkpoint + journal durability (\"\" = no persistence)")
	snapEvery = flag.Int("snapshot-every", 64, "commands between automatic checkpoints (with -state-dir)")
)

func main() {
	flag.Parse()
	s, err := experiments.SchedulerByName(*sched)
	if err != nil {
		log.Fatal(err)
	}
	// Construction goes through the same Bootstrap recipe recovery uses, so
	// a journaled run replays through byte-identical initial state.
	boot := persist.Bootstrap{
		Kind:        "apiserver",
		Seed:        *seed,
		Nodes:       *nodes,
		Hetero:      *hetero,
		Scheduler:   *sched,
		HarvestSpec: *hspec,
	}
	orch, hctl, err := persist.Rebuild(boot, s)
	if err != nil {
		log.Fatal(err)
	}
	srv := api.NewServer(orch)
	if hctl != nil {
		srv.SetHarvest(hctl)
	}
	if *stateDir != "" {
		mgr, err := persist.Open(*stateDir, boot, persist.WithSnapshotEvery(*snapEvery))
		if err != nil {
			log.Fatal(err)
		}
		n, err := srv.Recover(mgr)
		if err != nil {
			log.Fatalf("apiserver: recover from %s: %v", *stateDir, err)
		}
		if n > 0 {
			log.Printf("apiserver: recovered %d commands from %s (clock at %v)",
				n, *stateDir, orch.Eng.Now())
		}
	}

	// Wrap the API handler in an outer mux carrying the observability
	// endpoints; the control-plane routes stay untouched under "/".
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.Handle("/metrics", obs.PromHandler(obs.Default()))
	buildinfo.Publish()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Slowloris hardening: a client trickling its header or body can no
	// longer pin a connection open indefinitely. Handler time (a long
	// /advance) is unbounded on purpose, so no WriteTimeout.
	hsrv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- hsrv.Serve(ln) }()
	log.Printf("apiserver: %d nodes, %s scheduler, listening on %s", *nodes, s.Name(), ln.Addr())

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("apiserver: shutting down (drain %s)", *drain)
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hsrv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("apiserver: shutdown: %v", err)
		}
		// Write a final checkpoint, so the next start byte-verifies its
		// replay of the whole journal. No-op without -state-dir.
		if err := srv.Close(); err != nil {
			log.Fatalf("apiserver: close state: %v", err)
		}
	}
}
