package persist

import (
	"fmt"

	"kubeknots/internal/cluster"
	"kubeknots/internal/harvest"
	"kubeknots/internal/k8s"
	"kubeknots/internal/sim"
)

// Rebuild constructs a control plane from its bootstrap recipe — the same
// construction sequence cmd/apiserver performs, so a fresh start and a
// recovery start are indistinguishable. The scheduler is passed in (looked
// up from boot.Scheduler by the caller, e.g. experiments.SchedulerByName)
// to keep this package free of a scheduler-name registry.
//
// Matching cmd/apiserver, the orchestrator is started eagerly only when a
// harvest controller is attached; otherwise the first Run starts it lazily
// after the first commands land — event-registration order is part of the
// deterministic trajectory, so the two paths must never be mixed.
func Rebuild(boot Bootstrap, sched k8s.Scheduler) (*k8s.Orchestrator, *harvest.Controller, error) {
	cfg := cluster.DefaultConfig()
	if boot.Nodes > 0 {
		cfg.Nodes = boot.Nodes
	}
	var cl *cluster.Cluster
	if boot.Hetero {
		cl = cluster.NewHeterogeneous(cfg, cluster.HeterogeneousPool())
	} else {
		cl = cluster.New(cfg)
	}
	orch := k8s.NewOrchestrator(sim.NewEngine(boot.Seed), cl, sched, k8s.Config{})
	var hctl *harvest.Controller
	if boot.HarvestSpec != "" {
		hcfg, err := harvest.ParseSpec(boot.HarvestSpec)
		if err != nil {
			return nil, nil, err
		}
		if hcfg.Enabled {
			hctl = harvest.New(orch, hcfg)
			orch.Start()
			hctl.Start()
		}
	}
	return orch, hctl, nil
}

// ApplyRecord re-executes one journaled command against a control plane,
// exactly mirroring the live mutation path (manifest parse → pod build →
// submit; advance → Run). It returns the created pod for submit records
// (nil for advances) so callers can maintain their own indices.
func ApplyRecord(o *k8s.Orchestrator, rec Record) (*k8s.Pod, error) {
	switch rec.Type {
	case RecordSubmit:
		m, err := k8s.ParseManifest(rec.Manifest)
		if err != nil {
			return nil, fmt.Errorf("persist: replay submit: %w", err)
		}
		pod, err := o.PodFromManifest(m, nil)
		if err != nil {
			return nil, fmt.Errorf("persist: replay submit %q: %w", m.Name, err)
		}
		o.Submit(o.Eng.Now(), pod)
		return pod, nil
	case RecordAdvance:
		o.Run(o.Eng.Now() + sim.Time(rec.MS))
		return nil, nil
	default:
		return nil, fmt.Errorf("persist: replay: unknown record type %d", rec.Type)
	}
}

// replayJournal re-executes a recovered journal against o: records 1..N of
// the checkpoint ckpt (nil on a fresh directory, N=0), a byte-identity
// check of the result against ckpt.State, then the rest. Any divergence —
// a code change that altered simulation behaviour, a damaged journal —
// fails here instead of silently forking history.
func replayJournal(o *k8s.Orchestrator, hctl *harvest.Controller, ckpt *Snapshot, journal []Record, onSubmit func(*k8s.Pod)) error {
	apply := func(recs []Record) error {
		for _, rec := range recs {
			pod, err := ApplyRecord(o, rec)
			if err != nil {
				return fmt.Errorf("replay command %d/%d: %w", rec.Seq, len(journal), err)
			}
			if pod != nil && onSubmit != nil {
				onSubmit(pod)
			}
		}
		return nil
	}
	if ckpt == nil {
		return apply(journal)
	}
	if err := apply(journal[:ckpt.Covers]); err != nil {
		return err
	}
	if err := VerifyState(CaptureState(o, hctl), ckpt.State); err != nil {
		return fmt.Errorf("checkpoint verification at record %d: %w", ckpt.Covers, err)
	}
	return apply(journal[ckpt.Covers:])
}

// Verification is what VerifyDir checked.
type Verification struct {
	// Covers is the journal position of the checkpoint that was matched.
	Covers uint64
	// Journal is the number of intact journal records replayed.
	Journal int
	// Torn reports a torn final record, dropped.
	Torn bool
}

// VerifyDir replays an apiserver state directory offline, the same way
// recovery does, without writing to it: the journal's first N records must
// reproduce the checkpoint's State byte for byte and the rest must apply.
// scheduler resolves the Bootstrap's scheduler name.
func VerifyDir(dir string, scheduler func(name string) (k8s.Scheduler, error)) (Verification, error) {
	ckpt, journal, torn, err := load(&Store{dir: dir})
	if err != nil {
		return Verification{}, err
	}
	if ckpt == nil {
		return Verification{}, fmt.Errorf("no snapshot in %s", dir)
	}
	if ckpt.Boot.Kind != "apiserver" {
		return Verification{}, fmt.Errorf("verify supports apiserver state (this dir is %q); it has no command journal", ckpt.Boot.Kind)
	}
	sched, err := scheduler(ckpt.Boot.Scheduler)
	if err != nil {
		return Verification{}, err
	}
	o, hctl, err := Rebuild(ckpt.Boot, sched)
	if err != nil {
		return Verification{}, err
	}
	if err := replayJournal(o, hctl, ckpt, journal, nil); err != nil {
		return Verification{}, err
	}
	return Verification{Covers: ckpt.Covers, Journal: len(journal), Torn: torn}, nil
}
