package main

import (
	"fmt"
	"math"
	"time"

	"overd/internal/balance"
	"overd/internal/cases"
	"overd/internal/dcf"
	"overd/internal/flow"
	"overd/internal/grid"
	"overd/internal/machine"
	"overd/internal/metrics"
	"overd/internal/par"
	"overd/internal/sixdof"
)

// The step loop below reproduces core.Run's step loop (internal/core/step.go
// and run.go) call for call through the layers' public functions, timing
// each call on the host clock. It makes the same calls in the same order on
// every rank, so the virtual clocks — and therefore the Result — are bit
// for bit those of core.Run; steploop_test.go checks that.

// layer indexes the per-rank wall-clock accumulators.
type layer int

const (
	lHalo    layer = iota // flow.Block.ExchangeHalo
	lBC                   // flow.Block.ApplyBCs
	lTurb                 // flow.Block.ComputeTurbulence
	lRHS                  // flow.Block.ComputeRHS
	lADI                  // flow.Block.SolveADI
	lUpdate               // flow.Block.ApplyUpdate
	lFringe               // dcf.Solver.UpdateFringes
	lSolve                // dcf.Solver.Solve
	lMasks                // flow.Block.RefreshMasks
	lBarrier              // par.Rank.Barrier, called from the step loop
	lMotion               // grid motion: transforms, RefreshGeometry, freestream residual
	lCheck                // balance: feedback gathers + StepBalancer.Rebalance
	lRepart               // balance: repartition (rebuild, data move, reconnect)
	numLayers
)

// rankTimes is one rank's accumulators, written only by that rank's
// goroutine and read after the world joins. The padding keeps two ranks'
// hot counters off one cache line.
type rankTimes struct {
	d        [numLayers]time.Duration
	flops    float64 // flops returned by the timed flow kernels
	served   int     // dcf Stats.Received over step-loop solves
	forwards int
	rounds   int
	_        [64]byte
}

// tracedResult is one timed solve: the Result fields the gate compares,
// plus the wall-clock breakdown.
type tracedResult struct {
	ref      refResult
	steps    int
	stepsMS  []float64        // wall ms of steps 1..steps-1, stamped where core's OnStep fires
	setup    [4]time.Duration // case, plan, blocks, connect
	times    rankTimes        // summed over ranks
	igbps    int              // Σ composite fringe count over steps
	maxF     float64          // Σ MaxF over steps
	resolved int
	orphaned int
	msgs     float64 // par messages over the measured window
	bytes    float64
}

// stepLoop is the state of one timed solve (core's runState, reduced to the
// features the benchmark workloads use: no faults, checkpoints, sampling
// or tracing).
type stepLoop struct {
	c        *cases.Case
	steps    int
	check    int
	plan     *balance.Plan
	blocks   []*flow.Block
	solvers  []*dcf.Solver
	flowAr   *flow.Arenas
	dcfAr    *dcf.Arenas
	dt       float64
	stepBal  balance.StepBalancer
	balInput balance.Input

	prevClock, prevWait []float64
	times               []rankTimes
	stamps              []time.Time
	igbps               int
	maxF                float64

	res      tracedResult
	startClk float64
	s0       [8]float64 // phase and wait baselines, rank 0
	reb      int
	moved    int
	setupT   [2]time.Duration // blocks, connect (rank 0)
}

// runTimed solves s's case built with seed through the timed step loop. reg,
// when non-nil, is attached to the world for message counts.
func runTimed(s solverSpec, seed int64, reg *metrics.Registry) (*tracedResult, error) {
	t0 := time.Now()
	c := s.newCase(seed)
	caseT := time.Since(t0)
	check := s.Check
	if check <= 0 {
		check = 5
	}
	name := "static"
	if s.Fo > 0 && !math.IsInf(s.Fo, 1) {
		name = "dynamic"
	}
	bal, err := balance.New(name, balance.Params{Fo: s.Fo, CheckInterval: check})
	if err != nil {
		return nil, err
	}
	if c.FreeBody != nil {
		return nil, fmt.Errorf("timed loop: free-body cases are not supported")
	}
	centers := make([][3]float64, len(c.Sys.Grids))
	for i, g := range c.Sys.Grids {
		b := g.Bounds()
		centers[i] = [3]float64{(b.Min.X + b.Max.X) / 2, (b.Min.Y + b.Max.Y) / 2, (b.Min.Z + b.Max.Z) / 2}
	}
	input := balance.Input{Sizes: c.GridSizes(), Dims: c.GridDims(), Centers: centers, NP: s.Nodes}
	t1 := time.Now()
	plan, err := bal.Plan(input)
	if err != nil {
		return nil, err
	}
	planT := time.Since(t1)

	n := plan.NP()
	d := &stepLoop{
		c: c, steps: s.Steps, check: check, plan: plan,
		blocks: make([]*flow.Block, n), solvers: make([]*dcf.Solver, n),
		flowAr: flow.NewArenas(n), dcfAr: dcf.NewArenas(n),
		balInput:  input,
		prevClock: make([]float64, n), prevWait: make([]float64, n),
		times: make([]rankTimes, n), stamps: make([]time.Time, s.Steps),
	}
	if sb, ok := bal.(balance.StepBalancer); ok && sb.Active() {
		d.stepBal = sb
	}
	world := par.NewWorld(n, machine.SP2())
	world.SetParallelism(0)
	world.SetMetrics(reg)
	if _, err := world.RunErr(d.rankMain); err != nil {
		return nil, err
	}

	res := &d.res
	res.steps = s.Steps
	res.setup = [4]time.Duration{caseT, planT, d.setupT[0], d.setupT[1]}
	for i := range d.times {
		for l := range d.times[i].d {
			res.times.d[l] += d.times[i].d[l]
		}
		res.times.flops += d.times[i].flops
		res.times.served += d.times[i].served
		res.times.forwards += d.times[i].forwards
		res.times.rounds += d.times[i].rounds
	}
	for i := 1; i < len(d.stamps); i++ {
		res.stepsMS = append(res.stepsMS, float64(d.stamps[i].Sub(d.stamps[i-1]).Nanoseconds())/1e6)
	}
	res.igbps, res.maxF = d.igbps, d.maxF
	res.ref.Rebalances, res.ref.MovedPoints = d.reb, d.moved
	res.ref.Np = append([]int(nil), d.plan.Np...)
	for _, sv := range d.solvers {
		r, o := sv.DonorCounts()
		res.resolved += r
		res.orphaned += o
	}
	if reg != nil {
		for rank := 0; rank < n; rank++ {
			res.msgs += reg.SumSeries("overd_par_msgs_sent_total", rank)
			res.bytes += reg.SumSeries("overd_par_bytes_sent_total", rank)
		}
	}
	return res, nil
}

// timed adds the wall time since t0 to rank id's accumulator for l.
func (d *stepLoop) timed(id int, l layer, t0 time.Time) {
	d.times[id].d[l] += time.Since(t0)
}

func (d *stepLoop) barrier(r *par.Rank) {
	t0 := time.Now()
	r.Barrier()
	d.timed(r.ID, lBarrier, t0)
}

func phaseClocks(r *par.Rank) [8]float64 {
	return [8]float64{
		r.PhaseTime(par.PhaseFlow), r.PhaseTime(par.PhaseMotion),
		r.PhaseTime(par.PhaseConnect), r.PhaseTime(par.PhaseBalance),
		r.WaitTime(par.PhaseFlow), r.WaitTime(par.PhaseMotion),
		r.WaitTime(par.PhaseConnect), r.WaitTime(par.PhaseBalance),
	}
}

// rankMain mirrors core's rankMain: preprocessing, then the three-module
// timestep loop with the step-boundary balance check.
func (d *stepLoop) rankMain(r *par.Rank) {
	c := d.c
	id := r.ID
	r.SetPhase(par.PhaseOther)
	if id == 0 {
		t0 := time.Now()
		d.buildBlocks()
		d.setupT[0] = time.Since(t0)
	}
	t0 := time.Now()
	r.Barrier()
	d.solvers[id] = dcf.NewSolver(c.Overset, dcfParts(d.plan), id)
	d.solvers[id].UseArenas(d.dcfAr)
	r.Barrier()
	d.solvers[id].Solve(r)
	d.blocks[id].RefreshMasks()
	r.Barrier()
	d.blocks[id].ExchangeHalo(r)
	d.solvers[id].UpdateFringes(r, d.blocks[id])
	r.Barrier()
	if id == 0 {
		d.dt = c.DT
	}
	if c.DT <= 0 {
		local := d.blocks[id].MaxDTLocal(flow.DefaultCFL)
		global := -r.AllReduceMax(-local)
		if id == 0 {
			d.dt = global
		}
	}
	r.Barrier()
	if id == 0 {
		d.setupT[1] = time.Since(t0)
	}

	r.MetricsWindowStart()
	s0Flops := r.TotalFlops()
	d.prevClock[id] = r.Clock
	d.prevWait[id] = r.TotalWaitTime()
	if id == 0 {
		d.startClk = r.Clock
		d.s0 = phaseClocks(r)
	}
	tm := &d.times[id]

	for step := 0; step < d.steps; step++ {
		// Module 1: flow (core: ExchangeHalo, UpdateFringes, FlowStep).
		r.SetPhase(par.PhaseFlow)
		b := d.blocks[id]
		t := time.Now()
		b.ExchangeHalo(r)
		d.timed(id, lHalo, t)
		t = time.Now()
		d.solvers[id].UpdateFringes(r, b)
		d.timed(id, lFringe, t)
		d.flowStep(r, b, tm)
		d.barrier(r)

		// Module 2: grid motion.
		r.SetPhase(par.PhaseMotion)
		d.moveGrids(r, step)
		d.barrier(r)

		// Module 3: connectivity.
		t = time.Now()
		st := d.solvers[id].Solve(r)
		d.timed(id, lSolve, t)
		tm.served += st.Received
		tm.forwards += st.Forwards
		if id == 0 {
			tm.rounds += st.Rounds // collective: every rank takes the same rounds
		}
		r.SetPhase(par.PhaseConnect)
		t = time.Now()
		d.blocks[id].RefreshMasks()
		d.timed(id, lMasks, t)
		d.barrier(r)

		r.SetPhase(par.PhaseBalance)
		if d.stepBal != nil && (step+1)%d.check == 0 {
			d.balanceStep(r, step)
		}
		d.barrier(r)
		if step == d.steps-1 {
			r.MetricsWindowEnd()
		}
		if id == 0 {
			d.captureStep(r, step)
		}
		d.barrier(r)
	}

	if id == 0 {
		for _, s := range d.solvers {
			_, orph := s.DonorCounts()
			d.res.ref.Orphans += orph
		}
	}
	total := r.AllReduceSum(r.TotalFlops() - s0Flops)
	if id == 0 {
		d.res.ref.Flops = total
	}
}

// flowStep is flow.Block.FlowStep with each kernel timed; the kernels, the
// Compute charges and their order are FlowStep's.
func (d *stepLoop) flowStep(r *par.Rank, b *flow.Block, tm *rankTimes) {
	id := r.ID
	r.SetWorkingSet(b.WorkingSetBytes())
	t := time.Now()
	b.ExchangeHalo(r)
	d.timed(id, lHalo, t)
	kernel := func(l layer, f float64, t time.Time) {
		d.timed(id, l, t)
		tm.flops += f
		r.Compute(f)
	}
	t = time.Now()
	kernel(lBC, b.ApplyBCs(), t)
	t = time.Now()
	kernel(lTurb, b.ComputeTurbulence(), t)
	t = time.Now()
	kernel(lRHS, b.ComputeRHS(d.dt), t)
	t = time.Now()
	kernel(lADI, b.SolveADI(r, d.dt), t)
	t = time.Now()
	kernel(lUpdate, b.ApplyUpdate(), t)
	t = time.Now()
	kernel(lBC, b.ApplyBCs(), t)
}

// captureStep records the step's virtual phase deltas exactly as core's
// rank 0 does, and stamps the host clock where core fires OnStep.
func (d *stepLoop) captureStep(r *par.Rank, step int) {
	now := phaseClocks(r)
	igbps, maxI, sumI := 0, 0, 0
	for _, s := range d.solvers {
		igbps += s.IGBPCount()
		if s.ReceivedIGBPs > maxI {
			maxI = s.ReceivedIGBPs
		}
		sumI += s.ReceivedIGBPs
	}
	maxF := 0.0
	if sumI > 0 {
		maxF = float64(maxI) * float64(len(d.solvers)) / float64(sumI)
	}
	d.igbps += igbps
	d.maxF += maxF
	d.stamps[step] = time.Now()
	if step == d.steps-1 {
		ref := &d.res.ref
		ref.TotalTime = r.Clock - d.startClk
		ref.FlowTime, ref.MotionTime = now[0]-d.s0[0], now[1]-d.s0[1]
		ref.ConnectTime, ref.BalanceTime = now[2]-d.s0[2], now[3]-d.s0[3]
		ref.FlowWait, ref.MotionWait = now[4]-d.s0[4], now[5]-d.s0[5]
		ref.ConnectWait, ref.BalanceWait = now[6]-d.s0[6], now[7]-d.s0[7]
		ref.IGBPs = igbps
	}
}

// moveGrids mirrors core's moveGrids for prescribed motion; its barrier is
// timed as par, the rest as motion.
func (d *stepLoop) moveGrids(r *par.Rank, step int) {
	c := d.c
	id := r.ID
	t0 := time.Now()
	t := float64(step+1) * d.dt
	for gi, g := range c.Sys.Grids {
		if !isFirstRankOfGrid(d.plan, id, gi) {
			continue
		}
		if gi >= len(c.Motions) || c.Motions[gi] == nil {
			continue
		}
		if _, static := c.Motions[gi].(sixdof.StaticMotion); static {
			continue
		}
		g.ApplyTransform(c.Motions[gi].At(t))
		r.Compute(float64(g.NPoints()) * 12)
	}
	d.timed(id, lMotion, t0)
	d.barrier(r)
	t0 = time.Now()
	if c.Sys.Grids[d.plan.Parts[id].Grid].Moving {
		b := d.blocks[id]
		b.RefreshGeometry(d.dt)
		b.RefreshFreestreamResidual()
		r.Compute(float64(b.NPointsLocal()) * 180)
	}
	d.timed(id, lMotion, t0)
}

// balanceStep mirrors core's balanceStep: gather the declared feedback,
// decide, and repartition on a new plan.
func (d *stepLoop) balanceStep(r *par.Rank, step int) {
	id := r.ID
	t0 := time.Now()
	needs := d.stepBal.Needs()
	fb := balance.Feedback{Step: step}
	if needs.IGBPs {
		recvAny := r.AllGather(d.solvers[id].ReceivedIGBPs, 8)
		fb.ReceivedIGBPs = make([]int, len(recvAny))
		for i, v := range recvAny {
			fb.ReceivedIGBPs[i] = v.(int)
		}
	}
	if needs.Waits {
		wait := r.TotalWaitTime() - d.prevWait[id]
		busy := (r.Clock - d.prevClock[id]) - wait
		bwAny := r.AllGather([2]float64{busy, wait}, 16)
		fb.Busy = make([]float64, len(bwAny))
		fb.Wait = make([]float64, len(bwAny))
		for i, v := range bwAny {
			bw := v.([2]float64)
			fb.Busy[i], fb.Wait[i] = bw[0], bw[1]
		}
		d.prevClock[id] = r.Clock
		d.prevWait[id] = r.TotalWaitTime()
	}
	newPlan, _, err := d.stepBal.Rebalance(d.plan, d.balInput, fb)
	d.timed(id, lCheck, t0)
	if err != nil || newPlan == d.plan {
		return
	}
	t0 = time.Now()
	d.repartition(r, newPlan)
	d.timed(id, lRepart, t0)
}

// repartition mirrors core's repartition, including its modeled
// redistribution charge.
func (d *stepLoop) repartition(r *par.Rank, newPlan *balance.Plan) {
	oldBlocks := append([]*flow.Block(nil), d.blocks...)
	oldPlan := d.plan
	r.Barrier()
	if r.ID == 0 {
		d.plan = newPlan
		d.reb++
		d.moved += balance.MovedPoints(oldPlan, newPlan)
		d.buildBlocks()
	}
	r.Barrier()
	b := d.blocks[r.ID]
	part := d.plan.Parts[r.ID]
	moved := 0
	for k := part.Box.KLo; k <= part.Box.KHi; k++ {
		for j := part.Box.JLo; j <= part.Box.JHi; j++ {
			for i := part.Box.ILo; i <= part.Box.IHi; i++ {
				oldRank := ownerOf(oldPlan, part.Grid, i, j, k)
				q, ok := oldBlocks[oldRank].QAtGlobal(i, j, k)
				if !ok {
					continue
				}
				if oldRank != r.ID {
					moved++
				}
				li, lj, lk := b.Local(i, j, k)
				b.SetQ(b.LIdx(li, lj, lk), q)
			}
		}
	}
	r.Elapse(r.Model().CommTime(moved * 40))
	r.Compute(float64(part.Box.Count()) * 10)
	d.solvers[r.ID] = dcf.NewSolver(d.c.Overset, dcfParts(d.plan), r.ID)
	d.solvers[r.ID].UseArenas(d.dcfAr)
	r.Barrier()
	d.solvers[r.ID].Solve(r)
	d.blocks[r.ID].RefreshMasks()
	r.Barrier()
	d.blocks[r.ID].ExchangeHalo(r)
	d.solvers[r.ID].UpdateFringes(r, d.blocks[r.ID])
	r.Barrier()
}

// buildBlocks constructs every rank's block for the current plan (rank 0,
// between barriers), as core's buildBlocks.
func (d *stepLoop) buildBlocks() {
	c := d.c
	for gi := range c.Sys.Grids {
		var boxes []grid.IBox
		var ranks []int
		for rank, part := range d.plan.Parts {
			if part.Grid == gi {
				boxes = append(boxes, part.Box)
				ranks = append(ranks, rank)
			}
		}
		blks := flow.BuildBlocks(c.Sys.Grids[gi], boxes, ranks, c.FS)
		for i, rk := range ranks {
			if c.ViscousAll {
				blks[i].SetViscousDirs([3]bool{true, true, true})
			}
			blks[i].UseArenas(d.flowAr)
			d.blocks[rk] = blks[i]
		}
	}
}

func dcfParts(plan *balance.Plan) []dcf.Part {
	parts := make([]dcf.Part, plan.NP())
	for i, p := range plan.Parts {
		parts[i] = dcf.Part{Grid: p.Grid, Rank: p.Rank, Box: p.Box}
	}
	return parts
}

func isFirstRankOfGrid(plan *balance.Plan, rank, gi int) bool {
	for r, p := range plan.Parts {
		if p.Grid == gi {
			return r == rank
		}
	}
	return false
}

func ownerOf(plan *balance.Plan, gi, i, j, k int) int {
	for rank, p := range plan.Parts {
		if p.Grid == gi && p.Box.Contains(i, j, k) {
			return rank
		}
	}
	return -1
}
