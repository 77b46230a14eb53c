package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"kubeknots/internal/experiments"
	"kubeknots/internal/persist"
	"kubeknots/internal/sim"
)

// stateCmd implements the offline `knotsctl state` subcommands. They read a
// -state-dir written by the apiserver (checkpoint + journal), knotsd
// (snapshot only), or a kubeknots -crash-at run (per-run snapshots) — no
// server connection required.
func stateCmd(args []string, stdout, stderr io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: knotsctl state inspect|verify <state-dir>")
	}
	verb, dir := args[0], args[1]
	if _, err := os.Stat(dir); err != nil {
		return fmt.Errorf("state dir: %w", err)
	}
	switch verb {
	case "inspect":
		return stateInspect(dir, stdout)
	case "verify":
		return stateVerify(dir, stdout)
	}
	return fmt.Errorf("unknown state command %q (want inspect or verify)", verb)
}

// stateInspect prints what the dir holds: the control-plane checkpoint, the
// journal, and any per-run experiment snapshots — each with its bootstrap
// recipe, clock, and record counts. CRC or format damage surfaces as the
// load error for the affected file.
func stateInspect(dir string, w io.Writer) error {
	store, err := persist.OpenStore(dir)
	if err != nil {
		return err
	}
	found := false
	snap, err := store.LoadSnapshot()
	if err != nil {
		fmt.Fprintf(w, "snapshot: CORRUPT: %v\n", err)
		found = true
	} else if snap != nil {
		found = true
		printSnapshot(w, "snapshot", snap)
	}
	if recs, torn, err := store.LoadWAL(); err != nil {
		fmt.Fprintf(w, "wal: CORRUPT: %v\n", err)
		found = true
	} else if recs != nil || fileExists(filepath.Join(dir, "wal.kkw")) {
		found = true
		state := "clean"
		if torn {
			state = "torn tail dropped"
		}
		fmt.Fprintf(w, "wal: %d records (%s)\n", len(recs), state)
	}
	runs, err := store.RunSnapshots()
	if err != nil {
		return err
	}
	for _, path := range runs {
		found = true
		rsnap, lerr := persist.LoadSnapshotFile(path)
		if lerr != nil {
			fmt.Fprintf(w, "%s: CORRUPT: %v\n", filepath.Base(path), lerr)
			continue
		}
		printSnapshot(w, filepath.Base(path), rsnap)
	}
	if !found {
		fmt.Fprintln(w, "empty state dir")
	}
	return nil
}

func printSnapshot(w io.Writer, label string, snap *persist.Snapshot) {
	b := snap.Boot
	fmt.Fprintf(w, "%s: kind=%s seed=%d nodes=%d scheduler=%s", label, b.Kind, b.Seed, b.Nodes, b.Scheduler)
	if b.Hetero {
		fmt.Fprint(w, " hetero")
	}
	if b.HarvestSpec != "" {
		fmt.Fprintf(w, " harvest=%q", b.HarvestSpec)
	}
	if b.RunKey != "" {
		fmt.Fprintf(w, " run=%q", b.RunKey)
	}
	fmt.Fprintf(w, "\n  clock=%v covers=%d pods=%d events=%d series=%d\n",
		sim.Time(snap.State.ClockMS), snap.Covers, len(snap.State.Pods),
		len(snap.State.Events), len(snap.State.Series))
}

// stateVerify replays the journal through a fresh control plane and
// byte-compares the result at the checkpoint against its recorded state —
// the same check recovery performs, runnable offline.
func stateVerify(dir string, w io.Writer) error {
	v, err := persist.VerifyDir(dir, experiments.SchedulerByName)
	if err != nil {
		return err
	}
	tail := ""
	if v.Torn {
		tail = " (torn tail dropped)"
	}
	fmt.Fprintf(w, "verified: checkpoint at record %d byte-identical, %d journal records apply%s\n",
		v.Covers, v.Journal, tail)
	return nil
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
