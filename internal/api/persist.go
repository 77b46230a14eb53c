package api

import (
	"fmt"

	"kubeknots/internal/k8s"
	"kubeknots/internal/persist"
)

// Recover attaches a persistence manager and replays its journal into the
// freshly-constructed server. The orchestrator must be in its just-built
// state (same Bootstrap the manager was opened with, nothing submitted,
// clock at zero): recovery re-executes every journaled command and
// byte-verifies the rebuilt state against the checkpoint's on the way (see
// persist.Manager.Resume), so any divergence fails loudly here instead of
// silently forking history.
//
// On success the manager is journaling and the server owns it; Close the
// server (or the manager) on shutdown. Returns the number of commands
// replayed.
func (s *Server) Recover(m *persist.Manager) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.persist != nil {
		return 0, fmt.Errorf("api: persistence already attached")
	}
	replayed, err := m.Resume(s.orch, s.harvest, func(pod *k8s.Pod) { s.pods[pod.Name] = pod })
	if err != nil {
		return replayed, fmt.Errorf("api: recover: %w", err)
	}
	s.persist = m
	if replayed > 0 {
		s.version.Add(1)
		s.buildSnapshotLocked()
	}
	return replayed, nil
}

// maybeSnapshotLocked writes a fresh checkpoint when one is due. Caller
// holds mu exclusively. Checkpoint failures are recorded in the
// persist_errors_total metric but do not fail the request that triggered
// them: the journal still has every command, so durability is not lost.
func (s *Server) maybeSnapshotLocked() {
	if s.persist == nil || !s.persist.SnapshotDue() {
		return
	}
	st := persist.CaptureState(s.orch, s.harvest)
	_ = s.persist.WriteSnapshot(st)
}

// Close writes a final checkpoint and closes the attached persistence
// manager. Replay on the next start still runs from the bootstrap; the
// final checkpoint lets it byte-verify the whole history at its end. A
// server without persistence closes as a no-op.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.persist == nil {
		return nil
	}
	st := persist.CaptureState(s.orch, s.harvest)
	if err := s.persist.WriteSnapshot(st); err != nil {
		s.persist.Close()
		return err
	}
	return s.persist.Close()
}
