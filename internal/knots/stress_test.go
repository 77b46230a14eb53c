package knots

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"kubeknots/internal/cluster"
	"kubeknots/internal/sim"
	"kubeknots/internal/workloads"
)

// TestProfilerConcurrentObserveComplete runs many goroutines, each feeding a
// distinct container of the same image through Observe→Complete, while
// readers poll Stats and Images. Run under -race. Every completed run must
// land in the aggregate — no lost runs.
func TestProfilerConcurrentObserveComplete(t *testing.T) {
	const (
		writers = 8
		readers = 4
		runs    = 5
	)
	prof := workloads.RodiniaProfile(workloads.KMeans)
	p := NewProfiler()
	var wg sync.WaitGroup
	var stop atomic.Bool

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if st, ok := p.Stats(prof.Name); ok {
					if st.Runs <= 0 || st.MemPeakMB < st.MemP80MB {
						t.Errorf("inconsistent stats mid-run: %+v", st)
						return
					}
				}
				p.Images()
			}
		}()
	}

	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for run := 0; run < runs; run++ {
				c := &cluster.Container{
					ID:    fmt.Sprintf("c%d-%d", w, run),
					Class: prof.Class,
					Inst:  prof.NewInstance(nil),
				}
				for s := 0; s < 10; s++ {
					at := sim.Time(s) * ProfileStep
					p.Observe(at, c, float64(100+s), float64(10+s))
				}
				p.Complete(c)
			}
		}(w)
	}
	ww.Wait()
	stop.Store(true)
	wg.Wait()

	st, ok := p.Stats(prof.Name)
	if !ok {
		t.Fatal("no stats after completed runs")
	}
	if st.Runs != writers*runs {
		t.Fatalf("lost runs: Runs = %d, want %d", st.Runs, writers*runs)
	}
	if st.MemPeakMB != 109 || st.SMPeakPct != 19 {
		t.Fatalf("peaks = (%v, %v), want (109, 19)", st.MemPeakMB, st.SMPeakPct)
	}
	if len(st.UpcomingMem) == 0 || st.UpcomingMem[0] != 100 {
		t.Fatalf("upcoming series wrong: %v", st.UpcomingMem)
	}
}
