package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// File names inside a state directory. A daemon keeps one snapshot (the
// checkpoint) and one WAL (the journal); experiment sweeps write one
// run-scoped snapshot per grid point.
const (
	snapshotFile = "snapshot.kks"
	walFile      = "wal.kkw"
	runPrefix    = "run-"
	runSuffix    = ".kks"
)

// Store is one state directory on disk.
type Store struct{ dir string }

// OpenStore creates (if needed) and opens a state directory.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("persist: empty state directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: create state dir: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the directory path.
func (s *Store) Dir() string { return s.dir }

// SnapshotPath returns the daemon snapshot file path.
func (s *Store) SnapshotPath() string { return filepath.Join(s.dir, snapshotFile) }

// WALPath returns the daemon WAL file path.
func (s *Store) WALPath() string { return filepath.Join(s.dir, walFile) }

// LoadSnapshot reads the daemon snapshot; (nil, nil) when none exists.
func (s *Store) LoadSnapshot() (*Snapshot, error) {
	return loadSnapshotFile(s.SnapshotPath())
}

// WriteSnapshot atomically replaces the daemon snapshot (write to a temp
// file, fsync, rename) and returns the encoded size.
func (s *Store) WriteSnapshot(snap *Snapshot) (int, error) {
	start := time.Now()
	n, err := writeSnapshotFile(s.SnapshotPath(), snap)
	if err != nil {
		mErrors.Inc()
		return 0, err
	}
	mSnapshots.Inc()
	mSnapshotBytes.Set(float64(n))
	mSnapshotSeconds.Observe(time.Since(start).Seconds())
	return n, nil
}

// LoadWAL replays the daemon WAL; (nil, false, nil) when none exists. A
// torn tail is reported, not fatal.
func (s *Store) LoadWAL() ([]Record, bool, error) {
	data, err := os.ReadFile(s.WALPath())
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return DecodeWAL(data)
}

// RunSnapshots lists the run-scoped snapshot files in the directory,
// sorted by name.
func (s *Store) RunSnapshots() ([]string, error) {
	entries, err := filepath.Glob(filepath.Join(s.dir, runPrefix+"*"+runSuffix))
	if err != nil {
		return nil, err
	}
	return entries, nil
}

// sanitizeKey maps an experiment run key ("fig9/App-Mix-1/PP/seed=3") onto
// a filename-safe token.
func sanitizeKey(key string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		case r == '.', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, key)
}

// RunSnapshotPath returns the snapshot path for one experiment grid point.
func RunSnapshotPath(dir, key string) string {
	return filepath.Join(dir, runPrefix+sanitizeKey(key)+runSuffix)
}

// WriteRunSnapshot atomically writes one grid point's snapshot.
func WriteRunSnapshot(dir, key string, snap *Snapshot) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("persist: create state dir: %w", err)
	}
	n, err := writeSnapshotFile(RunSnapshotPath(dir, key), snap)
	if err != nil {
		mErrors.Inc()
		return err
	}
	mSnapshots.Inc()
	mSnapshotBytes.Set(float64(n))
	return nil
}

// LoadRunSnapshot reads one grid point's snapshot; ok=false when absent.
func LoadRunSnapshot(dir, key string) (*Snapshot, bool, error) {
	snap, err := loadSnapshotFile(RunSnapshotPath(dir, key))
	if err != nil {
		return nil, false, err
	}
	return snap, snap != nil, nil
}

// LoadSnapshotFile reads and decodes one snapshot file by path; (nil, nil)
// when the file does not exist. Inspection tools use it to read run-scoped
// snapshots whose original (pre-sanitization) key is unknown.
func LoadSnapshotFile(path string) (*Snapshot, error) {
	return loadSnapshotFile(path)
}

func loadSnapshotFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	snap, err := DecodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return snap, nil
}

func writeSnapshotFile(path string, snap *Snapshot) (int, error) {
	data, err := EncodeSnapshot(snap)
	if err != nil {
		return 0, err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("persist: write snapshot: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("persist: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("persist: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("persist: publish snapshot: %w", err)
	}
	// The rename itself is only durable once the directory entry is synced;
	// without this a power loss can resurface the old snapshot, or none.
	if err := syncDir(filepath.Dir(path)); err != nil {
		return 0, fmt.Errorf("persist: sync state dir: %w", err)
	}
	return len(data), nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
