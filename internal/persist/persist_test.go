package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"kubeknots/internal/harvest"
	"kubeknots/internal/k8s"
	"kubeknots/internal/scheduler"
	"kubeknots/internal/sim"
)

// testBoot is the control plane every test replays into: small cluster,
// PP scheduler, harvest controller on — exercising the full state surface
// (pods, series, QoS, harvest counters).
func testBoot() Bootstrap {
	return Bootstrap{
		Kind:        "apiserver",
		Seed:        7,
		Nodes:       2,
		Scheduler:   "pp",
		HarvestSpec: "on,watermark=0.85",
	}
}

func manifestJSON(name, kind, app string) []byte {
	return []byte(fmt.Sprintf(`{"name":%q,"workload":{"kind":%q,"name":%q}}`, name, kind, app))
}

// testCommands is a workload that schedules, runs, and completes pods so
// the captured state is non-trivial in every section.
func testCommands() []Record {
	return []Record{
		SubmitRecord(manifestJSON("batch-1", "rodinia", "kmeans")),
		AdvanceRecord(int64(2 * sim.Second)),
		SubmitRecord(manifestJSON("lc-1", "inference", "imc")),
		SubmitRecord(manifestJSON("batch-2", "rodinia", "pathfinder")),
		AdvanceRecord(int64(5 * sim.Second)),
		SubmitRecord(manifestJSON("lc-2", "inference", "face")),
		AdvanceRecord(int64(10 * sim.Second)),
	}
}

// replay rebuilds the test control plane and re-executes cmds.
func replay(tb testing.TB, cmds []Record) (*k8s.Orchestrator, *harvest.Controller) {
	tb.Helper()
	o, hctl, err := Rebuild(testBoot(), &scheduler.PP{})
	if err != nil {
		tb.Fatal(err)
	}
	for _, rec := range cmds {
		if _, err := ApplyRecord(o, rec); err != nil {
			tb.Fatal(err)
		}
	}
	return o, hctl
}

func replayState(t *testing.T, cmds []Record) *State {
	t.Helper()
	return CaptureState(replay(t, cmds))
}

// resume opens dir and brings a freshly rebuilt control plane up to the end
// of its journal, the way the apiserver starts.
func resume(t *testing.T, dir string, opts ...ManagerOption) (*Manager, *k8s.Orchestrator, *harvest.Controller) {
	t.Helper()
	m, err := Open(dir, testBoot(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	o, hctl := replay(t, nil)
	if _, err := m.Resume(o, hctl, nil); err != nil {
		t.Fatal(err)
	}
	return m, o, hctl
}

// journal appends and applies cmds the way the apiserver serves them,
// writing a checkpoint whenever one is due.
func journal(t *testing.T, m *Manager, o *k8s.Orchestrator, hctl *harvest.Controller, cmds []Record) {
	t.Helper()
	for _, rec := range cmds {
		if err := m.Append(rec); err != nil {
			t.Fatal(err)
		}
		if _, err := ApplyRecord(o, rec); err != nil {
			t.Fatal(err)
		}
		if m.SnapshotDue() {
			if err := m.WriteSnapshot(CaptureState(o, hctl)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestReplayIsDeterministic(t *testing.T) {
	a := replayState(t, testCommands())
	b := replayState(t, testCommands())
	if err := VerifyState(a, b); err != nil {
		t.Fatalf("two replays of the same history diverged: %v", err)
	}
	if a.ClockMS != int64(17*sim.Second) {
		t.Fatalf("clock = %d, want %d", a.ClockMS, int64(17*sim.Second))
	}
	if len(a.Pods) != 4 {
		t.Fatalf("pods = %d, want 4", len(a.Pods))
	}
	if len(a.Series) == 0 {
		t.Fatal("no telemetry series captured")
	}
	if a.Harvest == nil {
		t.Fatal("harvest state missing despite enabled controller")
	}
}

func TestStateCodecRoundTrip(t *testing.T) {
	st := replayState(t, testCommands())
	got, err := DecodeState(EncodeState(st))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyState(got, st); err != nil {
		t.Fatalf("state round-trip diverged: %v", err)
	}
}

func TestDecodeStateRejectsDamage(t *testing.T) {
	data := EncodeState(replayState(t, testCommands()))
	if _, err := DecodeState(data[:len(data)-3]); err == nil {
		t.Fatal("truncated state decoded without error")
	}
	if _, err := DecodeState(append(append([]byte(nil), data...), 0xFF)); err == nil {
		t.Fatal("state with trailing bytes decoded without error")
	}
	if _, err := DecodeState(nil); err == nil {
		t.Fatal("empty state decoded without error")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	snap := &Snapshot{Boot: testBoot(), Covers: 7, State: replayState(t, testCommands())}
	data, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Boot.Equal(snap.Boot) {
		t.Fatalf("boot round-trip: got %+v want %+v", got.Boot, snap.Boot)
	}
	if got.Covers != snap.Covers {
		t.Fatalf("covers = %d, want %d", got.Covers, snap.Covers)
	}
	if err := VerifyState(got.State, snap.State); err != nil {
		t.Fatalf("snapshot state diverged: %v", err)
	}
}

func TestSnapshotCRCDetectsCorruption(t *testing.T) {
	data, err := EncodeSnapshot(&Snapshot{Boot: testBoot(), State: replayState(t, testCommands())})
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{8, len(data) / 2, len(data) - 5} {
		mutated := append([]byte(nil), data...)
		mutated[off] ^= 0x40
		if _, err := DecodeSnapshot(mutated); err == nil {
			t.Fatalf("flipping byte %d was not detected", off)
		}
	}
	if _, err := DecodeSnapshot(data[:len(data)-2]); err == nil {
		t.Fatal("truncated snapshot decoded without error")
	}
	if _, err := DecodeSnapshot([]byte("NOTASNAP")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestWALRoundTripAndTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.kkw")
	w, err := openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	cmds := testCommands()
	for _, rec := range cmds {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, torn, err := DecodeWAL(data)
	if err != nil || torn {
		t.Fatalf("clean WAL: torn=%v err=%v", torn, err)
	}
	if len(recs) != len(cmds) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(cmds))
	}

	// A crash mid-append leaves a torn final record: every truncation point
	// inside the last frame must drop exactly that record.
	for cut := len(data) - 1; cut > len(data)-8; cut-- {
		recs, torn, err := DecodeWAL(data[:cut])
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if !torn {
			t.Fatalf("cut=%d: tear not detected", cut)
		}
		if len(recs) != len(cmds)-1 {
			t.Fatalf("cut=%d: %d records survive, want %d", cut, len(recs), len(cmds)-1)
		}
	}

	// A flipped payload byte in the tail record fails its CRC the same way.
	mutated := append([]byte(nil), data...)
	mutated[len(mutated)-6] ^= 0x01
	recs, torn, err = DecodeWAL(mutated)
	if err != nil || !torn || len(recs) != len(cmds)-1 {
		t.Fatalf("corrupt tail: recs=%d torn=%v err=%v", len(recs), torn, err)
	}

	if _, _, err := DecodeWAL([]byte("BADMAGIC")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestWALTornTailTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.kkw")
	w, err := openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	cmds := testCommands()
	for _, rec := range cmds[:3] {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	// Reopen for appending: the torn frame must be truncated away so the
	// new record extends the intact prefix instead of landing after
	// garbage (where replay would never reach it).
	w2, err := openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if w2.lastSeq != 2 {
		t.Fatalf("last seq after torn reopen = %d, want 2", w2.lastSeq)
	}
	if err := w2.Append(AdvanceRecord(500)); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	data2, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, torn, err := DecodeWAL(data2)
	if err != nil || torn {
		t.Fatalf("after reopen+append: torn=%v err=%v", torn, err)
	}
	if len(recs) != 3 || recs[2].MS != 500 || recs[2].Seq != 3 {
		t.Fatalf("after reopen+append: %+v", recs)
	}
}

// faultFile injects one failure into the journal file's write path.
type faultFile struct {
	*os.File
	shortWrite, failSync, failTruncate bool
}

func (f *faultFile) Write(p []byte) (int, error) {
	if f.shortWrite {
		f.shortWrite = false
		n, _ := f.File.Write(p[:len(p)/2])
		return n, errors.New("injected short write")
	}
	return f.File.Write(p)
}

func (f *faultFile) Sync() error {
	if f.failSync {
		f.failSync = false
		return errors.New("injected fsync failure")
	}
	return f.File.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if f.failTruncate {
		return errors.New("injected truncate failure")
	}
	return f.File.Truncate(size)
}

// TestWALFailedAppendRolledBack: an append that fails after reaching the
// file must leave no frame behind, so the next acknowledged record takes
// the same sequence number and the reopened journal holds exactly the
// acknowledged records.
func TestWALFailedAppendRolledBack(t *testing.T) {
	cmds := testCommands()
	for _, fault := range []string{"fsync", "short-write"} {
		t.Run(fault, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.kkw")
			w, err := openWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append(cmds[0]); err != nil {
				t.Fatal(err)
			}
			ff := &faultFile{File: w.f.(*os.File), failSync: fault == "fsync", shortWrite: fault == "short-write"}
			w.f = ff
			if err := w.Append(cmds[1]); err == nil {
				t.Fatal("append with an injected fault succeeded")
			}
			if err := w.Append(cmds[2]); err != nil {
				t.Fatalf("append after a rolled-back failure: %v", err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			w2, err := openWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			recs, torn, err := DecodeWAL(data)
			if err != nil || torn {
				t.Fatalf("reopened journal: torn=%v err=%v", torn, err)
			}
			want := []Record{cmds[0], cmds[2]}
			if len(recs) != len(want) {
				t.Fatalf("reopened journal holds %d records, want %d: %+v", len(recs), len(want), recs)
			}
			for i, rec := range recs {
				want[i].Seq = uint64(i) + 1
				if !reflect.DeepEqual(rec, want[i]) {
					t.Fatalf("record %d = %+v, want %+v", i, rec, want[i])
				}
			}
		})
	}

	// If the rollback fails too, the journal may end in an unacknowledged
	// frame: every later append is refused rather than written after it.
	path := filepath.Join(t.TempDir(), "wal.kkw")
	w, err := openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ff := &faultFile{File: w.f.(*os.File), failSync: true, failTruncate: true}
	w.f = ff
	if err := w.Append(cmds[0]); err == nil {
		t.Fatal("append with an injected fault succeeded")
	}
	ff.failTruncate = false
	if err := w.Append(cmds[1]); err == nil || !strings.Contains(err.Error(), "could not be rolled back") {
		t.Fatalf("append on a journal whose rollback failed: err=%v, want refusal", err)
	}
	if w.lastSeq != 0 {
		t.Fatalf("last seq = %d after refused appends, want 0", w.lastSeq)
	}
}

// TestManagerTornTailRecoveryKeepsLaterAppends is the end-to-end check for
// the torn-tail fix: commands journaled *after* a torn-tail recovery must
// survive the *next* recovery.
func TestManagerTornTailRecoveryKeepsLaterAppends(t *testing.T) {
	cmds := testCommands()
	dir := t.TempDir()
	walPath := filepath.Join(dir, "wal.kkw")

	m1, o1, hctl1 := resume(t, dir)
	journal(t, m1, o1, hctl1, cmds[:3])
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	m2, o2, hctl2 := resume(t, dir)
	if st := m2.StatsSnapshot(); st.RecoveredCommands != 2 || !st.RecoveredTorn {
		t.Fatalf("recovery from torn WAL: %+v, want 2 commands and a torn tail", st)
	}
	// The torn command was never acknowledged, so the client re-submits
	// it; more commands follow. All of them are fsync-acknowledged.
	journal(t, m2, o2, hctl2, cmds[2:4])
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}

	m3, err := Open(dir, testBoot())
	if err != nil {
		t.Fatal(err)
	}
	if len(m3.journal) != 4 {
		t.Fatalf("recovered %d records, want 4 — acknowledged mutations lost after torn-tail recovery", len(m3.journal))
	}
	o3, hctl3 := replay(t, nil)
	if _, err := m3.Resume(o3, hctl3, nil); err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	if err := VerifyState(CaptureState(o3, hctl3), replayState(t, cmds[:4])); err != nil {
		t.Fatalf("recovery after a torn tail diverged: %v", err)
	}
}

// cutFrame removes the i-th (0-based) record frame from a WAL image.
func cutFrame(t *testing.T, data []byte, i int) []byte {
	t.Helper()
	off := len(walMagic)
	for ; i > 0; i-- {
		off += 16 + int(binary.LittleEndian.Uint32(data[off:]))
	}
	end := off + 16 + int(binary.LittleEndian.Uint32(data[off:]))
	return append(append([]byte(nil), data[:off]...), data[end:]...)
}

func TestManagerRefusesWALGap(t *testing.T) {
	dir := t.TempDir()
	m, o, hctl := resume(t, dir)
	journal(t, m, o, hctl, testCommands()[:3])
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "wal.kkw")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, cutFrame(t, data, 1), 0o644); err != nil { // seqs 1, 3
		t.Fatal(err)
	}
	if _, err := Open(dir, testBoot()); err == nil || !strings.Contains(err.Error(), "WAL gap") {
		t.Fatalf("gap in the command history accepted: %v", err)
	}
}

// TestManagerRefusesLostAcknowledgedCommands: a journal shorter than the
// checkpoint's position means commands the checkpoint counted are gone.
func TestManagerRefusesLostAcknowledgedCommands(t *testing.T) {
	dir := t.TempDir()
	m, o, hctl := resume(t, dir, WithSnapshotEvery(4))
	journal(t, m, o, hctl, testCommands()[:4])
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "wal.kkw")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, cutFrame(t, cutFrame(t, data, 3), 2), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testBoot()); err == nil || !strings.Contains(err.Error(), "acknowledged commands were lost") {
		t.Fatalf("journal of 2 records under a checkpoint at 4 accepted: %v", err)
	}
}

// TestRecoveryAtEveryCrashPoint crashes after every prefix of the workload
// under every checkpoint cadence, recovers, finishes the workload, and
// requires the result to be byte-identical to the uninterrupted replay.
func TestRecoveryAtEveryCrashPoint(t *testing.T) {
	cmds := testCommands()
	want := replayState(t, cmds)
	for every := 0; every <= 3; every++ {
		for k := 0; k <= len(cmds); k++ {
			t.Run(fmt.Sprintf("every=%d/k=%d", every, k), func(t *testing.T) {
				dir := t.TempDir()
				m1, o1, hctl1 := resume(t, dir, WithSnapshotEvery(every))
				journal(t, m1, o1, hctl1, cmds[:k])
				// Crash: no final checkpoint. Every Append was fsynced, so
				// closing the file loses nothing a kill would not.
				if err := m1.Close(); err != nil {
					t.Fatal(err)
				}
				ckpt, err := (&Store{dir: dir}).LoadSnapshot()
				if err != nil {
					t.Fatal(err)
				}
				wantCovers := 0
				if every > 0 {
					wantCovers = k / every * every
				}
				if ckpt == nil || ckpt.Covers != uint64(wantCovers) {
					t.Fatalf("checkpoint %+v, want one covering %d records", ckpt, wantCovers)
				}

				m2, o2, hctl2 := resume(t, dir, WithSnapshotEvery(every))
				if n := m2.StatsSnapshot().RecoveredCommands; n != k {
					t.Fatalf("recovered %d commands, want %d", n, k)
				}
				journal(t, m2, o2, hctl2, cmds[k:])
				if err := m2.Close(); err != nil {
					t.Fatal(err)
				}
				if err := VerifyState(CaptureState(o2, hctl2), want); err != nil {
					t.Fatalf("crash-recovery run diverged from uninterrupted run: %v", err)
				}
				// The records replayed past the checkpoint count toward the
				// cadence, so a crash does not push the next checkpoint back.
				if ckpt, err = (&Store{dir: dir}).LoadSnapshot(); err != nil {
					t.Fatal(err)
				}
				if every > 0 {
					wantCovers = len(cmds) / every * every
				}
				if ckpt.Covers != uint64(wantCovers) {
					t.Fatalf("final checkpoint covers %d records, want %d", ckpt.Covers, wantCovers)
				}
			})
		}
	}
}

func TestManagerCrashRecoveryByteIdentical(t *testing.T) {
	cmds := testCommands()
	dir := t.TempDir()
	// First incarnation: journal the first 4 commands with a checkpoint
	// after 3, then "crash" without closing cleanly.
	m1, o1, hctl1 := resume(t, dir, WithSnapshotEvery(3))
	journal(t, m1, o1, hctl1, cmds[:4])
	// No Close: the WAL's per-record fsync already made command 4 durable.

	// Second incarnation: the checkpoint covers 3 records of a 4-record
	// journal, and resuming lands on the state after all 4.
	m2, err := Open(dir, testBoot())
	if err != nil {
		t.Fatal(err)
	}
	if m2.loaded == nil || m2.loaded.Covers != 3 || len(m2.journal) != 4 {
		t.Fatalf("recovered checkpoint %+v with %d journal records, want 3 of 4", m2.loaded, len(m2.journal))
	}
	o2, hctl2 := replay(t, nil)
	if _, err := m2.Resume(o2, hctl2, nil); err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if err := VerifyState(CaptureState(o2, hctl2), replayState(t, cmds[:4])); err != nil {
		t.Fatalf("crash-recovery run diverged from uninterrupted run: %v", err)
	}
}

// TestResumeDetectsDivergence: a journal that no longer reproduces the
// checkpoint's State is refused, not silently continued.
func TestResumeDetectsDivergence(t *testing.T) {
	dir := t.TempDir()
	m, o, hctl := resume(t, dir)
	journal(t, m, o, hctl, testCommands()[:2])
	wrong := replayState(t, testCommands()[:1])
	if err := m.WriteSnapshot(wrong); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(dir, testBoot())
	if err != nil {
		t.Fatal(err)
	}
	o2, hctl2 := replay(t, nil)
	if _, err := m2.Resume(o2, hctl2, nil); err == nil || !strings.Contains(err.Error(), "checkpoint verification") {
		t.Fatalf("diverged replay accepted: %v", err)
	}
}

func TestManagerRefusesForeignBootstrap(t *testing.T) {
	dir := t.TempDir()
	m, o, hctl := resume(t, dir)
	journal(t, m, o, hctl, testCommands()[:3])
	// Crash before any checkpoint past the first: the bootstrap is on
	// disk all the same, so a control plane built from another seed is
	// refused instead of replaying this journal onto the wrong trajectory.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	other := testBoot()
	other.Seed = 99
	if _, err := Open(dir, other); err == nil ||
		!strings.Contains(err.Error(), "different control plane") {
		t.Fatalf("foreign bootstrap accepted: %v", err)
	}
}

// TestManagerRefusesJournalWithoutCheckpoint: a journal whose checkpoint is
// gone has no record of the control plane it belongs to.
func TestManagerRefusesJournalWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	m, o, hctl := resume(t, dir)
	journal(t, m, o, hctl, testCommands()[:3])
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "snapshot.kks")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testBoot()); err == nil || !strings.Contains(err.Error(), "no checkpoint") {
		t.Fatalf("journal without a checkpoint accepted: %v", err)
	}
}

// TestCheckpointSizeIndependentOfHistory: a checkpoint of the same State is
// the same size however many commands the journal holds, and writing one
// leaves the journal untouched.
func TestCheckpointSizeIndependentOfHistory(t *testing.T) {
	dir := t.TempDir()
	m, o, hctl := resume(t, dir)
	defer m.Close()
	st := CaptureState(o, hctl)
	if err := m.WriteSnapshot(st); err != nil {
		t.Fatal(err)
	}
	short := m.StatsSnapshot().LastSnapshotBytes
	for i := 0; i < 200; i++ {
		if err := m.Append(SubmitRecord(manifestJSON(fmt.Sprintf("p-%03d", i), "rodinia", "kmeans"))); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.WriteSnapshot(st); err != nil {
		t.Fatal(err)
	}
	if long := m.StatsSnapshot().LastSnapshotBytes; long != short {
		t.Fatalf("checkpoint of one State grew from %d to %d bytes over 200 journaled commands", short, long)
	}
	data, err := os.ReadFile(filepath.Join(dir, "wal.kkw"))
	if err != nil {
		t.Fatal(err)
	}
	if recs, torn, err := DecodeWAL(data); err != nil || torn || len(recs) != 200 {
		t.Fatalf("journal after checkpoint: %d records, torn=%v, err=%v; want all 200", len(recs), torn, err)
	}
}

func TestManagerAppendBeforeJournalFails(t *testing.T) {
	m, err := Open(t.TempDir(), testBoot())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Append(AdvanceRecord(1)); err == nil {
		t.Fatal("Append before Resume succeeded")
	}
}

func TestRunSnapshotStore(t *testing.T) {
	dir := t.TempDir()
	key := "fig9/App-Mix-1/PP/seed=3"
	snap := &Snapshot{Boot: Bootstrap{Kind: "experiment", RunKey: key}, State: replayState(t, nil)}
	if err := WriteRunSnapshot(dir, key, snap); err != nil {
		t.Fatal(err)
	}
	got, ok, err := LoadRunSnapshot(dir, key)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if got.Boot.RunKey != key {
		t.Fatalf("run key round-trip: %q", got.Boot.RunKey)
	}
	if _, ok, _ := LoadRunSnapshot(dir, "other/key"); ok {
		t.Fatal("absent run snapshot reported present")
	}
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	files, err := store.RunSnapshots()
	if err != nil || len(files) != 1 {
		t.Fatalf("run snapshots: %v err=%v", files, err)
	}
	if s := sanitizeKey(key); strings.ContainsAny(s, "/") {
		t.Fatalf("sanitizeKey left a path separator: %q", s)
	}
}

func TestRecordValidate(t *testing.T) {
	if err := (Record{Type: RecordSubmit}).validate(); err == nil {
		t.Fatal("submit without manifest accepted")
	}
	if err := (Record{Type: RecordAdvance, MS: 0}).validate(); err == nil {
		t.Fatal("zero advance accepted")
	}
	if err := (Record{Type: 99}).validate(); err == nil {
		t.Fatal("unknown type accepted")
	}
}
