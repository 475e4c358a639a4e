package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	overdmetrics "overd/internal/metrics"
)

// endToEnd and perLayer name every metric the benchmark reports, in output
// order, with its unit; BENCHMARK.json lists the same (stats_test.go
// checks). Every run prints all of its pass's metrics; a layer a workload
// does not exercise reads 0.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"ops_per_s", "1/s"},
	{"proc_speedup", "x"},
	{"alloc_mb_per_op", "MB"},
	{"allocs_per_op", "count"},
}

var perLayer = []struct{ name, unit string }{
	{"flow.halo_ms", "ms"},
	{"flow.bc_ms", "ms"},
	{"flow.turb_ms", "ms"},
	{"flow.rhs_ms", "ms"},
	{"flow.adi_ms", "ms"},
	{"flow.update_ms", "ms"},
	{"flow.mflops", "Mflop/s"},
	{"dcf.solve_ms", "ms"},
	{"dcf.fringe_ms", "ms"},
	{"dcf.masks_ms", "ms"},
	{"dcf.igbps", "count"},
	{"dcf.served", "count"},
	{"dcf.forwards", "count"},
	{"dcf.rounds", "count"},
	{"dcf.donor_frac", "frac"},
	{"dcf.forward_frac", "frac"},
	{"par.barrier_ms", "ms"},
	{"par.msgs", "count"},
	{"par.kbytes", "kB"},
	{"motion.ms", "ms"},
	{"balance.check_ms", "ms"},
	{"balance.repartition_ms", "ms"},
	{"balance.rebalances", "count"},
	{"balance.moved_points", "count"},
	{"balance.maxf", "ratio"},
	{"setup.case_ms", "ms"},
	{"setup.plan_ms", "ms"},
	{"setup.blocks_ms", "ms"},
	{"setup.connect_ms", "ms"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
	{"heap.live_mb", "MB"},
	{"serve.post_ms", "ms"},
	{"serve.wait_ms", "ms"},
	{"serve.fetch_ms", "ms"},
	{"serve.journal_ms", "ms"},
	{"serve.cache_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.execute_ms", "ms"},
	{"serve.publish_ms", "ms"},
	{"serve.hit_ms_p50", "ms"},
	{"serve.hit_ms_p90", "ms"},
	{"serve.hit_frac", "frac"},
	{"serve.dedup_frac", "frac"},
	{"serve.rejected", "count"},
	{"trace.overhead_frac", "frac"},
}

// layerValues is a traced pass's measurements by metric name, with notes.
type layerValues struct {
	v    map[string]float64
	note map[string]string
}

func newLayerValues() *layerValues {
	return &layerValues{v: map[string]float64{}, note: map[string]string{}}
}

func (l *layerValues) set(name string, v float64, note string) {
	l.v[name] = v
	if note != "" {
		l.note[name] = note
	}
}

// emit adds every per-layer metric to the report, 0 where this workload
// does not exercise the layer.
func (l *layerValues) emit(rep *report) {
	for _, m := range perLayer {
		note := l.note[m.name]
		if _, measured := l.v[m.name]; !measured {
			note = "not measured by this workload's traced pass"
		}
		rep.add(m.name, l.v[m.name], m.unit, note)
	}
}

// gcSample is the Go runtime's collector state at one instant.
type gcSample struct {
	cycles  float64
	pauseNs uint64
	liveB   float64
}

func readGC() gcSample {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcSample{
		cycles:  float64(s[0].Value.Uint64()),
		liveB:   float64(s[1].Value.Uint64()),
		pauseNs: ms.PauseTotalNs,
	}
}

// setGC records the collector activity between two samples.
func (l *layerValues) setGC(a, b gcSample) {
	l.set("gc.cycles", b.cycles-a.cycles, "runtime/metrics, whole traced run")
	l.set("gc.pause_ms", float64(b.pauseNs-a.pauseNs)/1e6, "stop-the-world pauses, whole traced run")
	l.set("heap.live_mb", b.liveB/1e6, "live heap after the last GC, end of run")
}

// runSolverTraced is the per-layer pass of a solver workload: timed
// solves (timed layer by layer) alternate with untraced core.Run solves,
// whose step times give the tracing overhead. Every solve of either kind is
// checked against the reference.
func runSolverTraced(s solverSpec, ref refResult, opt options, rep *report) error {
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	need := minSamples(0.5)
	gc0 := readGC()
	start := time.Now()
	var timed []*tracedResult
	var timedMS, plainMS samples
	for {
		el := time.Since(start).Seconds()
		if el >= opt.seconds && len(timedMS) >= need && len(plainMS) >= need {
			break
		}
		if el > 150 {
			return fmt.Errorf("%s: sample minimum not reached in 150 s", s.Name)
		}
		rep.attempted++
		if len(timedMS) <= len(plainMS) {
			runtime.GC()
			tr, err := runTimed(s, opt.seed, overdmetrics.New())
			if err != nil {
				rep.fail("timed solve: %v", err)
				continue
			}
			if d := ref.diff(tr.ref); d != "" {
				rep.fail("timed solve differs from reference: %s", d)
			}
			timed = append(timed, tr)
			timedMS = append(timedMS, tr.stepsMS...)
		} else {
			sv, err := runSolve(s, opt.seed, nproc)
			if err != nil {
				rep.fail("solve: %v", err)
				continue
			}
			if d := ref.diff(sv.ref); d != "" {
				rep.fail("solve differs from reference: %s", d)
			}
			plainMS = append(plainMS, sv.stepsMS...)
		}
	}
	gc1 := readGC()

	lv := newLayerValues()
	var tot rankTimes
	var setup [4]time.Duration
	steps, igbps, maxF := 0, 0, 0.0
	resolved, orphaned, reb, moved := 0, 0, 0, 0
	msgs, bytes := 0.0, 0.0
	for _, tr := range timed {
		for l := range tot.d {
			tot.d[l] += tr.times.d[l]
		}
		tot.flops += tr.times.flops
		tot.served += tr.times.served
		tot.forwards += tr.times.forwards
		tot.rounds += tr.times.rounds
		for i := range setup {
			setup[i] += tr.setup[i]
		}
		steps += tr.steps
		igbps += tr.igbps
		maxF += tr.maxF
		resolved += tr.resolved
		orphaned += tr.orphaned
		reb += tr.ref.Rebalances
		moved += tr.ref.MovedPoints
		msgs += tr.msgs
		bytes += tr.bytes
	}
	nSolves := float64(len(timed))
	if steps == 0 {
		return fmt.Errorf("%s: no timed solve completed", s.Name)
	}
	perStep := fmt.Sprintf("per step, summed over %d ranks; %d steps in %d timed solves", s.Nodes, steps, len(timed))
	ms := func(l layer) float64 { return float64(tot.d[l].Nanoseconds()) / 1e6 / float64(steps) }
	lv.set("flow.halo_ms", ms(lHalo), perStep)
	lv.set("flow.bc_ms", ms(lBC), perStep)
	lv.set("flow.turb_ms", ms(lTurb), perStep)
	lv.set("flow.rhs_ms", ms(lRHS), perStep)
	lv.set("flow.adi_ms", ms(lADI), perStep)
	lv.set("flow.update_ms", ms(lUpdate), perStep)
	kernelS := (tot.d[lBC] + tot.d[lTurb] + tot.d[lRHS] + tot.d[lADI] + tot.d[lUpdate]).Seconds()
	mf := ratio{tot.flops / 1e6, kernelS, "kernel-reported Mflop", "kernel wall s"}
	lv.set("flow.mflops", mf.value(), "computed: "+mf.String())
	lv.set("dcf.solve_ms", ms(lSolve), perStep)
	lv.set("dcf.fringe_ms", ms(lFringe), perStep)
	lv.set("dcf.masks_ms", ms(lMasks), perStep)
	lv.set("dcf.igbps", float64(igbps)/float64(steps), "composite fringe points per step")
	lv.set("dcf.served", float64(tot.served)/float64(steps), "donor-search requests served per step, all ranks")
	lv.set("dcf.forwards", float64(tot.forwards)/float64(steps), "requests forwarded per step, all ranks")
	lv.set("dcf.rounds", float64(tot.rounds)/float64(steps), "request/serve/reply rounds per step")
	df := ratio{float64(resolved), float64(resolved + orphaned), "resolved", "resolved+orphaned"}
	lv.set("dcf.donor_frac", df.value(), df.String())
	ff := ratio{float64(tot.forwards), float64(tot.served), "forwards", "served"}
	lv.set("dcf.forward_frac", ff.value(), ff.String())
	lv.set("par.barrier_ms", ms(lBarrier), perStep+"; step-loop barriers only")
	lv.set("par.msgs", msgs/float64(steps), "messages per step, measured window")
	lv.set("par.kbytes", bytes/1e3/float64(steps), "modeled payload kB per step")
	lv.set("motion.ms", ms(lMotion), perStep)
	lv.set("balance.check_ms", ms(lCheck), perStep)
	lv.set("balance.repartition_ms", ms(lRepart), perStep)
	lv.set("balance.rebalances", float64(reb)/nSolves, fmt.Sprintf("per %d-step solve", s.Steps))
	lv.set("balance.moved_points", float64(moved)/nSolves, fmt.Sprintf("per %d-step solve", s.Steps))
	lv.set("balance.maxf", maxF/float64(steps), "mean connectivity imbalance max I(p)/mean I(p)")
	perSetup := fmt.Sprintf("mean of %d setups", len(timed))
	for i, name := range []string{"setup.case_ms", "setup.plan_ms", "setup.blocks_ms", "setup.connect_ms"} {
		lv.set(name, float64(setup[i].Nanoseconds())/1e6/nSolves, perSetup)
	}
	lv.setGC(gc0, gc1)
	d50, _ := timedMS.percentile(0.5)
	p50, _ := plainMS.percentile(0.5)
	ov := ratio{d50, p50, "timed step_ms_p50", "core.Run step_ms_p50"}
	lv.set("trace.overhead_frac", ov.value(), fmt.Sprintf("%s; n=%d and %d", ov, len(timedMS), len(plainMS)))
	lv.emit(rep)
	return nil
}
