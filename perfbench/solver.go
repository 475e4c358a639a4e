package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"overd/internal/cases"
	"overd/internal/core"
	"overd/internal/machine"
)

// solverSpec is one paper-case solve: the case, its partition and balance
// settings, and the timesteps per solve.
type solverSpec struct {
	Name  string
	Case  string // "airfoil" or "storesep"
	Scale float64
	Nodes int
	Fo    float64 // +Inf: static balancing only
	Check int     // steps between dynamic-balance checks
	Steps int     // timesteps per solve
}

func solverSpecs() []solverSpec {
	return []solverSpec{
		// Table 1's largest partition: ~265 points per rank, so par
		// synchronisation and DCF hole-map rebuilds dominate the step.
		{Name: "airfoil-fine", Case: "airfoil", Scale: 0.1, Nodes: 24,
			Fo: math.Inf(1), Check: 5, Steps: 100},
		// 3-D kernels with Baldwin-Lomax, moving store grids, and a
		// repartition (plus from-scratch connectivity) every third step.
		{Name: "storesep-dyn", Case: "storesep", Scale: 0.1, Nodes: 52,
			Fo: 3, Check: 3, Steps: 30},
	}
}

func (s solverSpec) String() string {
	return fmt.Sprintf("case=%s scale=%g nodes=%d machine=SP2 fo=%g check_every=%d steps_per_solve=%d",
		s.Case, s.Scale, s.Nodes, s.Fo, s.Check, s.Steps)
}

// newCase builds the case with the seed's freestream: Mach within ±1% and
// angle of attack within ±1° of the paper's condition. The virtual-clock
// cost does not depend on the flow state, so every seed shares one
// reference result while the solution itself differs.
func (s solverSpec) newCase(seed int64) *cases.Case {
	var c *cases.Case
	if s.Case == "airfoil" {
		c = cases.OscAirfoil(s.Scale)
	} else {
		c = cases.StoreSep(s.Scale)
	}
	rng := rand.New(rand.NewSource(seed))
	c.FS.Mach *= 1 + 0.02*(rng.Float64()-0.5)
	c.FS.Alpha += (rng.Float64() - 0.5) * 2 * math.Pi / 180
	return c
}

// config is the core.Run configuration of one solve of c.
func (s solverSpec) config(c *cases.Case) core.Config {
	return core.Config{
		Case: c, Nodes: s.Nodes, Machine: machine.SP2(), Steps: s.Steps,
		Fo: s.Fo, CheckInterval: s.Check,
	}
}

// refResult is the part of core.Result the correctness gate compares
// exactly: virtual clocks, flop count and the partition outcome.
type refResult struct {
	TotalTime, Flops                               float64
	FlowTime, MotionTime, ConnectTime, BalanceTime float64
	FlowWait, MotionWait, ConnectWait, BalanceWait float64
	IGBPs, Orphans, Rebalances, MovedPoints        int
	Np                                             []int
}

func refOf(r *core.Result) refResult {
	return refResult{
		TotalTime: r.TotalTime, Flops: r.Flops,
		FlowTime: r.FlowTime, MotionTime: r.MotionTime,
		ConnectTime: r.ConnectTime, BalanceTime: r.BalanceTime,
		FlowWait: r.FlowWaitTime, MotionWait: r.MotionWaitTime,
		ConnectWait: r.ConnectWaitTime, BalanceWait: r.BalanceWaitTime,
		IGBPs: r.IGBPs, Orphans: r.Orphans, Rebalances: r.Rebalances,
		MovedPoints: r.MovedPoints, Np: append([]int(nil), r.Np...),
	}
}

// diff describes the first field where two results differ ("" if none).
// Floats compare bit for bit.
func (a refResult) diff(b refResult) string {
	fa := []float64{a.TotalTime, a.Flops, a.FlowTime, a.MotionTime, a.ConnectTime, a.BalanceTime,
		a.FlowWait, a.MotionWait, a.ConnectWait, a.BalanceWait}
	fb := []float64{b.TotalTime, b.Flops, b.FlowTime, b.MotionTime, b.ConnectTime, b.BalanceTime,
		b.FlowWait, b.MotionWait, b.ConnectWait, b.BalanceWait}
	names := []string{"TotalTime", "Flops", "FlowTime", "MotionTime", "ConnectTime", "BalanceTime",
		"FlowWaitTime", "MotionWaitTime", "ConnectWaitTime", "BalanceWaitTime"}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return fmt.Sprintf("%s %v != %v", names[i], fa[i], fb[i])
		}
	}
	ia := []int{a.IGBPs, a.Orphans, a.Rebalances, a.MovedPoints}
	ib := []int{b.IGBPs, b.Orphans, b.Rebalances, b.MovedPoints}
	for i, n := range []string{"IGBPs", "Orphans", "Rebalances", "MovedPoints"} {
		if ia[i] != ib[i] {
			return fmt.Sprintf("%s %d != %d", n, ia[i], ib[i])
		}
	}
	if fmt.Sprint(a.Np) != fmt.Sprint(b.Np) {
		return fmt.Sprintf("Np %v != %v", a.Np, b.Np)
	}
	return ""
}

//go:embed reference.json
var referenceJSON []byte

func loadReference(name string) (refResult, error) {
	var all map[string]refResult
	if err := json.Unmarshal(referenceJSON, &all); err != nil {
		return refResult{}, fmt.Errorf("reading reference.json: %w", err)
	}
	ref, ok := all[name]
	if !ok {
		return refResult{}, fmt.Errorf("reference.json has no result for %s", name)
	}
	return ref, nil
}

// setupSpec is s shortened to one step: the solve the set-up samples come
// from. Its result is gated against its own reference.
func (s solverSpec) setupSpec() solverSpec {
	s.Name += "/setup"
	s.Steps = 1
	return s
}

// recordReference solves every solver workload, full length and set-up
// only, and writes the results the correctness gate compares against.
func recordReference(path string) error {
	all := map[string]refResult{}
	for _, full := range solverSpecs() {
		for _, s := range []solverSpec{full, full.setupSpec()} {
			res, err := core.Run(s.config(s.newCase(1)))
			if err != nil {
				return fmt.Errorf("%s: %w", s.Name, err)
			}
			all[s.Name] = refOf(res)
		}
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// solve is one timed core.Run.
type solve struct {
	setup   float64   // seconds: case build + preprocessing + the first step
	wall    float64   // seconds: the whole solve, case build included
	stepsMS []float64 // wall ms of steps 1..Steps-1
	allocB  float64   // heap bytes allocated over steps 1..Steps-1
	allocN  float64   // heap objects allocated over the same steps
	ref     refResult
	surface uint64 // digest of the final wall-pressure distribution
	// nonFinite counts NaN or infinite values among the surfaceN sampled
	// wall pressures: a solution health figure, reported but not gated.
	nonFinite, surfaceN int
}

// runSolve builds the case and solves it through core.Run at the given
// GOMAXPROCS, timing each step from rank 0's step-boundary hook.
func runSolve(s solverSpec, seed int64, procs int) (*solve, error) {
	runtime.GOMAXPROCS(procs)
	runtime.GC()
	stamps := make([]time.Time, s.Steps)
	var m0, m1 runtime.MemStats
	t0 := time.Now()
	cfg := s.config(s.newCase(seed))
	cfg.Sample = &core.SampleSpec{FieldGrid: -1, FieldK: -1, SurfaceGrid: 0}
	cfg.OnStep = func(step int, _ core.StepStats, _ float64) {
		stamps[step] = time.Now()
		if step == 0 {
			runtime.ReadMemStats(&m0)
		}
		if step == s.Steps-1 {
			runtime.ReadMemStats(&m1)
		}
	}
	res, err := core.Run(cfg)
	if err != nil {
		return nil, err
	}
	sv := &solve{
		setup:  stamps[0].Sub(t0).Seconds(),
		wall:   time.Since(t0).Seconds(),
		allocB: float64(m1.TotalAlloc - m0.TotalAlloc),
		allocN: float64(m1.Mallocs - m0.Mallocs),
		ref:    refOf(res),
	}
	for i := 1; i < len(stamps); i++ {
		sv.stepsMS = append(sv.stepsMS, float64(stamps[i].Sub(stamps[i-1]).Nanoseconds())/1e6)
	}
	h := fnv.New64a()
	for _, p := range res.Surface {
		if math.IsNaN(p.Cp) || math.IsInf(p.Cp, 0) {
			sv.nonFinite++
		}
		fmt.Fprintf(h, "%x ", math.Float64bits(p.Cp))
	}
	sv.surface, sv.surfaceN = h.Sum64(), len(res.Surface)
	return sv, nil
}

// checkedSolve runs one solve and gates it: an error or a result that
// differs from ref counts as a failed operation. surface, when non-zero,
// is the digest every solve of this run must reproduce.
func checkedSolve(s solverSpec, ref refResult, seed int64, procs int, surface *uint64, rep *report) *solve {
	rep.attempted++
	sv, err := runSolve(s, seed, procs)
	if err != nil {
		rep.fail("%s at %d procs: %v", s.Name, procs, err)
		return nil
	}
	if d := ref.diff(sv.ref); d != "" {
		rep.fail("%s at %d procs differs from reference: %s", s.Name, procs, d)
	}
	if s.Steps > 1 {
		if *surface == 0 {
			*surface = sv.surface
		} else if sv.surface != *surface {
			rep.fail("%s at %d procs: surface solution differs from the run's first solve", s.Name, procs)
		}
	}
	return sv
}

// runSolver is the solver workloads' entry: the end-to-end pass or, with
// -trace 1, the per-layer pass.
func runSolver(s solverSpec, opt options, rep *report) error {
	ref, err := loadReference(s.Name)
	if err != nil {
		return err
	}
	if opt.trace {
		return runSolverTraced(s, ref, opt, rep)
	}
	setupRef, err := loadReference(s.setupSpec().Name)
	if err != nil {
		return err
	}
	nproc := runtime.NumCPU()
	start := time.Now()
	var surface uint64

	// Set-up samples: one-step solves at nproc, a tenth of the budget but
	// at least enough for a resolved median.
	var setups samples
	for len(setups) < minSamples(0.5) || time.Since(start).Seconds() < opt.seconds/10 {
		if time.Since(start) > 60*time.Second {
			return fmt.Errorf("%s: %d set-ups took over 60 s", s.Name, len(setups))
		}
		if sv := checkedSolve(s.setupSpec(), setupRef, opt.seed, nproc, &surface, rep); sv != nil {
			setups = append(setups, sv.setup)
		}
	}

	// Full solves: two thirds of the time at nproc, the rest at one proc,
	// continuing past the budget only until every percentile is resolved.
	needN, need1 := minSamples(0.9), minSamples(0.5)
	var stepsN, steps1 samples
	var tN, t1, allocB, allocN float64
	var lastN, last1 float64 // wall of the latest solve at each setting
	stepsDone, nonFinite, surfaceN := 0, 0, 0
	for {
		el := time.Since(start).Seconds()
		doneN := len(stepsN) >= needN
		done1 := nproc == 1 || len(steps1) >= need1
		// Stop once resolved and the next solve would end nearer past the
		// budget than short of it.
		if doneN && done1 && el+max(lastN, last1)/2 >= opt.seconds {
			break
		}
		if el > 150 {
			return fmt.Errorf("%s: percentiles unresolved after 150 s (%d steps at %d procs, %d at 1)", s.Name, len(stepsN), nproc, len(steps1))
		}
		procs := nproc
		switch {
		case nproc == 1 || done1 && !doneN:
		case doneN && !done1 || tN > 2*t1:
			procs = 1 // a third of the solve time at one proc
		}
		sv := checkedSolve(s, ref, opt.seed, procs, &surface, rep)
		if sv == nil {
			continue
		}
		nonFinite, surfaceN = sv.nonFinite, sv.surfaceN
		if procs == 1 && nproc > 1 {
			t1 += sv.wall
			last1 = sv.wall
			steps1 = append(steps1, sv.stepsMS...)
			continue
		}
		tN += sv.wall
		lastN = sv.wall
		stepsN = append(stepsN, sv.stepsMS...)
		stepsDone += s.Steps
		allocB += sv.allocB
		allocN += sv.allocN
	}
	if nproc == 1 {
		steps1 = stepsN
	}

	rep.note("solution: %d of %d wall-pressure samples non-finite after %d steps (reported, not gated)",
		nonFinite, surfaceN, s.Steps)
	setup, _ := setups.percentile(0.5)
	p50, _ := stepsN.percentile(0.5)
	p90, _ := stepsN.percentile(0.9)
	q50, _ := steps1.percentile(0.5)
	measured := float64(len(stepsN))
	speed := ratio{q50, p50, "step_ms_p50@1proc", fmt.Sprintf("step_ms_p50@%dproc", nproc)}
	rep.add("setup_s", setup, "s", fmt.Sprintf("median of %d one-step solves: case build + preprocessing + first step, GOMAXPROCS=%d", len(setups), nproc))
	rep.add("op_ms_p50", p50, "ms", fmt.Sprintf("timestep, n=%d at GOMAXPROCS=%d", len(stepsN), nproc))
	rep.add("op_ms_p90", p90, "ms", fmt.Sprintf("timestep, n=%d at GOMAXPROCS=%d", len(stepsN), nproc))
	rep.add("ops_per_s", float64(stepsDone)/tN, "1/s", fmt.Sprintf("steps %d / whole-solve wall %.3f s (set-up included)", stepsDone, tN))
	rep.add("proc_speedup", speed.value(), "x", fmt.Sprintf("%s; n=%d at 1 proc", speed, len(steps1)))
	rep.add("alloc_mb_per_op", allocB/1e6/measured, "MB", fmt.Sprintf("heap bytes over %g steps, whole process", measured))
	rep.add("allocs_per_op", allocN/measured, "count", fmt.Sprintf("heap objects over %g steps, whole process", measured))
	return nil
}
