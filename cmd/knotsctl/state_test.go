package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kubeknots/internal/api"
	"kubeknots/internal/k8s"
	"kubeknots/internal/persist"
	"kubeknots/internal/scheduler"
	"kubeknots/internal/sim"
)

// buildStateDir drives a persisted in-process apiserver through a small
// scenario and returns its state dir: a four-record journal and a
// checkpoint covering the first three (snapshot-every 3) — exactly what
// `knotsctl state` operates on.
func buildStateDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	boot := persist.Bootstrap{Kind: "apiserver", Seed: 1, Nodes: 2, Scheduler: "pp"}
	orch, _, err := persist.Rebuild(boot, &scheduler.PP{})
	if err != nil {
		t.Fatal(err)
	}
	srv := api.NewServer(orch)
	mgr, err := persist.Open(dir, boot, persist.WithSnapshotEvery(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Recover(mgr); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := api.NewClient(ts.URL)
	for _, n := range []string{"s1", "s2", "s3"} {
		if _, err := c.SubmitManifest(k8s.Manifest{
			Name:     n,
			Workload: k8s.WorkloadRef{Kind: "rodinia", Name: "pathfinder"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, err := c.Advance(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	// Close without a final checkpoint: leave the last command past the
	// checkpoint so verify has records to apply after the byte check.
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func runState(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"state"}, args...), &stdout, &stderr)
	return stdout.String(), stderr.String(), code
}

func TestStateInspectVerify(t *testing.T) {
	dir := buildStateDir(t)

	out, errOut, code := runState(t, "inspect", dir)
	if code != 0 {
		t.Fatalf("inspect exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "kind=apiserver") || !strings.Contains(out, "scheduler=pp") ||
		!strings.Contains(out, "covers=3") {
		t.Fatalf("inspect output:\n%s", out)
	}
	if !strings.Contains(out, "wal: 4 records (clean)") {
		t.Fatalf("inspect did not report the journal:\n%s", out)
	}

	out, errOut, code = runState(t, "verify", dir)
	if code != 0 {
		t.Fatalf("verify exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "verified: checkpoint at record 3 byte-identical, 4 journal records apply") {
		t.Fatalf("verify output:\n%s", out)
	}
	if _, _, code := runState(t, "compact", dir); code == 0 {
		t.Fatal("the removed compact verb was accepted")
	}
}

func TestStateVerifyDetectsTampering(t *testing.T) {
	dir := buildStateDir(t)
	path := filepath.Join(dir, "snapshot.kks")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// CRC damage surfaces at load time for both verbs; inspect degrades to
	// a CORRUPT line instead of failing.
	if _, errOut, code := runState(t, "verify", dir); code == 0 || !strings.Contains(errOut, "CRC mismatch") {
		t.Fatalf("verify over corrupt snapshot: exit %d, stderr %q", code, errOut)
	}
	out, _, code := runState(t, "inspect", dir)
	if code != 0 || !strings.Contains(out, "CORRUPT") {
		t.Fatalf("inspect over corrupt snapshot (exit %d):\n%s", code, out)
	}
}

func TestStateUsageAndErrors(t *testing.T) {
	if _, _, code := runState(t, "inspect"); code == 0 {
		t.Fatal("missing dir accepted")
	}
	if _, _, code := runState(t, "bogus", t.TempDir()); code == 0 {
		t.Fatal("unknown verb accepted")
	}
	if _, _, code := runState(t, "inspect", filepath.Join(t.TempDir(), "nope")); code == 0 {
		t.Fatal("nonexistent dir accepted")
	}
	if out, _, code := runState(t, "inspect", t.TempDir()); code != 0 || !strings.Contains(out, "empty state dir") {
		t.Fatalf("empty dir (exit %d): %s", code, out)
	}
	if _, errOut, code := runState(t, "verify", t.TempDir()); code == 0 || !strings.Contains(errOut, "no snapshot") {
		t.Fatalf("verify on empty dir: exit %d, %q", code, errOut)
	}
}
