package main

import (
	"fmt"
	"runtime"
	"testing"

	"overd/internal/core"
	"overd/internal/metrics"
)

// TestStepLoopReproducesCoreRun: the timed step loop must be the same
// program as core.Run — bit-identical virtual Result — on both solver
// workloads at GOMAXPROCS 1 and nproc, so the per-layer numbers of a traced
// run measure what the end-to-end runs measure.
func TestStepLoopReproducesCoreRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, s := range solverSpecs() {
		for _, procs := range []int{1, runtime.NumCPU()} {
			t.Run(fmt.Sprintf("%s/procs=%d", s.Name, procs), func(t *testing.T) {
				runtime.GOMAXPROCS(procs)
				res, err := core.Run(s.config(s.newCase(7)))
				if err != nil {
					t.Fatal(err)
				}
				tr, err := runTimed(s, 7, metrics.New())
				if err != nil {
					t.Fatal(err)
				}
				if d := refOf(res).diff(tr.ref); d != "" {
					t.Fatalf("timed loop differs from core.Run: %s", d)
				}
				if len(tr.stepsMS) != s.Steps-1 {
					t.Fatalf("timed loop stamped %d step intervals, want %d", len(tr.stepsMS), s.Steps-1)
				}
			})
		}
	}
}

// TestReferenceIsCurrent: the recorded reference matches a fresh core.Run
// of every solver workload, full length and set-up only.
func TestReferenceIsCurrent(t *testing.T) {
	for _, full := range solverSpecs() {
		for _, s := range []solverSpec{full, full.setupSpec()} {
			ref, err := loadReference(s.Name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Run(s.config(s.newCase(3)))
			if err != nil {
				t.Fatal(err)
			}
			if d := ref.diff(refOf(res)); d != "" {
				t.Errorf("%s: %s", s.Name, d)
			}
		}
	}
}
