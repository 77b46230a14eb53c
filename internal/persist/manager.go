package persist

import (
	"fmt"
	"sync"

	"kubeknots/internal/harvest"
	"kubeknots/internal/k8s"
)

// ManagerOption configures a Manager.
type ManagerOption func(*Manager)

// WithSnapshotEvery writes a checkpoint after every n journaled commands
// (0 = only on demand / shutdown).
func WithSnapshotEvery(n int) ManagerOption {
	return func(m *Manager) { m.snapshotEvery = n }
}

// Manager owns a daemon's state directory: it carries the checkpoint and
// journal found at open, journals every accepted command, and writes a
// fresh checkpoint on the configured cadence.
//
// Lifecycle: Open → Resume (replay, verify, start journaling) → Append per
// command, WriteSnapshot when SnapshotDue → Close.
type Manager struct {
	mu            sync.Mutex
	store         *Store
	boot          Bootstrap
	snapshotEvery int

	// commands is the journal length: records recovered plus appended.
	commands uint64
	// sinceSnapshot counts commands journaled since the last checkpoint.
	sinceSnapshot int

	// loaded and journal are the recovery inputs found at Open, released
	// by Resume.
	loaded  *Snapshot
	journal []Record

	wal   *WAL
	stats Stats
}

// Stats is the /v1/state wire view of the persistence layer.
type Stats struct {
	Dir               string `json:"dir"`
	Commands          int    `json:"commands"`
	SnapshotsWritten  int    `json:"snapshots_written"`
	LastSnapshotBytes int    `json:"last_snapshot_bytes,omitempty"`
	RecoveredCommands int    `json:"recovered_commands"`
	RecoveredTorn     bool   `json:"recovered_torn_tail,omitempty"`
}

// Open loads the state directory and validates its checkpoint against
// boot: recovering into a differently-configured control plane would
// replay commands onto the wrong trajectory, so it is refused.
func Open(dir string, boot Bootstrap, opts ...ManagerOption) (*Manager, error) {
	store, err := OpenStore(dir)
	if err != nil {
		return nil, err
	}
	m := &Manager{store: store, boot: boot}
	for _, opt := range opts {
		opt(m)
	}
	ckpt, journal, torn, err := load(store)
	if err != nil {
		return nil, err
	}
	if ckpt != nil && !ckpt.Boot.Equal(boot) {
		return nil, fmt.Errorf("persist: state dir %s was written by a different control plane: stored %s, running %s",
			dir, mustJSON(ckpt.Boot), mustJSON(boot))
	}
	m.loaded, m.journal = ckpt, journal
	m.commands = uint64(len(journal))
	if ckpt != nil {
		// Records past the checkpoint count toward the next one, so a
		// server restarted more often than the cadence still checkpoints.
		m.sinceSnapshot = len(journal) - int(ckpt.Covers)
	}
	m.stats = Stats{Dir: dir, RecoveredCommands: len(journal), RecoveredTorn: torn}
	return m, nil
}

// load reads a state directory's checkpoint and journal and checks that
// they describe one history: a journal needs a checkpoint to name its
// control plane, its sequence numbers run 1..M without a gap, and it holds
// at least the N records the checkpoint covers.
func load(store *Store) (ckpt *Snapshot, journal []Record, torn bool, err error) {
	if ckpt, err = store.LoadSnapshot(); err != nil {
		return nil, nil, false, err
	}
	if journal, torn, err = store.LoadWAL(); err != nil {
		return nil, nil, false, err
	}
	if ckpt == nil && len(journal) > 0 {
		return nil, nil, false, fmt.Errorf("persist: %s holds a journal of %d records but no checkpoint naming its control plane",
			store.Dir(), len(journal))
	}
	for i, rec := range journal {
		if want := uint64(i) + 1; rec.Seq != want {
			return nil, nil, false, fmt.Errorf("persist: WAL gap in %s: record seq %d, want %d", store.Dir(), rec.Seq, want)
		}
	}
	if ckpt != nil && uint64(len(journal)) < ckpt.Covers {
		return nil, nil, false, fmt.Errorf("persist: %s journal holds %d records but the checkpoint covers %d: acknowledged commands were lost",
			store.Dir(), len(journal), ckpt.Covers)
	}
	return ckpt, journal, torn, nil
}

// Resume brings the control plane o (with its harvest controller hctl,
// possibly nil) — freshly built from the Manager's Bootstrap, nothing
// submitted — up to the end of the journal: it replays records 1..N,
// byte-verifies the result against the checkpoint's State, and replays
// N+1..M. onSubmit, if set, sees every pod a replayed submission creates.
// On a fresh directory it then writes a checkpoint at N=0, so the journal
// never holds a command without its Bootstrap on disk. Finally it opens
// the journal for appending, truncating any torn tail. Returns the number
// of commands replayed.
func (m *Manager) Resume(o *k8s.Orchestrator, hctl *harvest.Controller, onSubmit func(*k8s.Pod)) (int, error) {
	m.mu.Lock()
	ckpt, journal := m.loaded, m.journal
	m.loaded, m.journal = nil, nil
	m.mu.Unlock()
	if err := replayJournal(o, hctl, ckpt, journal, onSubmit); err != nil {
		return 0, err
	}
	mRecovered.Add(float64(len(journal)))
	if ckpt == nil {
		if err := m.WriteSnapshot(CaptureState(o, hctl)); err != nil {
			return len(journal), err
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	wal, err := openWAL(m.store.WALPath())
	if err != nil {
		return len(journal), err
	}
	m.wal = wal
	return len(journal), nil
}

// Append journals one accepted command. Write-ahead discipline: the caller
// must append before mutating, and refuse the mutation if this fails.
func (m *Manager) Append(rec Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.wal == nil {
		return fmt.Errorf("persist: Append before Resume")
	}
	if err := m.wal.Append(rec); err != nil {
		mErrors.Inc()
		return err
	}
	mWALRecords.With(recordTypeName(rec.Type)).Inc()
	m.commands++
	m.sinceSnapshot++
	return nil
}

// SnapshotDue reports whether the checkpoint cadence has elapsed.
func (m *Manager) SnapshotDue() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snapshotEvery > 0 && m.sinceSnapshot >= m.snapshotEvery
}

// WriteSnapshot durably replaces the checkpoint with st, the state after
// every command journaled so far. The journal is left as it is: each of
// those commands was fsynced before Append returned, so the journal always
// holds at least the records a published checkpoint covers.
func (m *Manager) WriteSnapshot(st *State) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, err := m.store.WriteSnapshot(&Snapshot{Boot: m.boot, Covers: m.commands, State: st})
	if err != nil {
		return err
	}
	m.stats.SnapshotsWritten++
	m.stats.LastSnapshotBytes = n
	m.sinceSnapshot = 0
	return nil
}

// StatsSnapshot returns the current persistence stats.
func (m *Manager) StatsSnapshot() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stats
	st.Commands = int(m.commands)
	return st
}

// Close closes the journal.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.wal == nil {
		return nil
	}
	err := m.wal.Close()
	m.wal = nil
	return err
}
