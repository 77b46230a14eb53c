package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// expected holds the recorded outcome of every workload at the default
// seed (expected/<workload>.json). Regenerate a file with
//
//	python3 perfbench/run.py --workload NAME --seed 1 --seconds 1 --trace 0 --record perfbench/expected
//
// only when a change is meant to alter simulated behaviour.
//
//go:embed expected/*.json
var expectedFS embed.FS

// loadExpected returns the recorded default-seed outcome of a workload.
func loadExpected(workload string) (outcome, error) {
	var o outcome
	data, err := expectedFS.ReadFile("expected/" + workload + ".json")
	if err != nil {
		return o, err
	}
	err = json.Unmarshal(data, &o)
	return o, err
}

// checkExpected compares an outcome with the recorded one, run by run.
func checkExpected(want, got outcome) error {
	if len(want.Runs) != len(got.Runs) {
		return fmt.Errorf("%d runs, expected %d", len(got.Runs), len(want.Runs))
	}
	for i := range want.Runs {
		if want.Runs[i] != got.Runs[i] {
			w, _ := json.Marshal(want.Runs[i])
			g, _ := json.Marshal(got.Runs[i])
			return fmt.Errorf("run %d is %s, expected %s", i, g, w)
		}
	}
	return nil
}

// sameOutcome reports whether two passes produced byte-identical outcomes.
func sameOutcome(a, b outcome) bool {
	x, _ := json.Marshal(a)
	y, _ := json.Marshal(b)
	return string(x) == string(y)
}

// recordExpected writes an outcome as dir/<workload>.json.
func recordExpected(dir, workload string, o outcome) error {
	data, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".json"), append(data, '\n'), 0o644)
}
