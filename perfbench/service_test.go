package main

import "testing"

// TestServiceMixShort runs the service workload end to end on small jobs:
// both passes complete, every job's bytes check out, and every metric of
// the pass is reported.
func TestServiceMixShort(t *testing.T) {
	s := defaultService()
	s.Scale, s.Steps = 0.05, 1
	for _, traced := range []bool{false, true} {
		rep := &report{}
		opt := options{seed: 5, seconds: 1, trace: traced, tmpDir: t.TempDir()}
		if err := runService(s, opt, rep); err != nil {
			t.Fatal(err)
		}
		if rep.failed != 0 || rep.attempted == 0 {
			t.Fatalf("trace=%v: %d of %d failed: %v", traced, rep.failed, rep.attempted, rep.problems)
		}
		want := len(endToEnd)
		if traced {
			want = len(perLayer)
		}
		if len(rep.metrics) != want {
			t.Errorf("trace=%v: %d metrics, want %d", traced, len(rep.metrics), want)
		}
	}
}
