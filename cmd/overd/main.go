// Command overd runs one of the paper's moving-body overset cases on a
// simulated machine and reports the paper-style performance statistics.
//
// Usage:
//
//	overd -case airfoil|deltawing|storesep [-nodes n] [-machine SP2|SP]
//	      [-steps n] [-scale f] [-fo f] [-workers k] [-dump] [-field out.csv]
//	      [-trace out.json] [-trace-summary]
//	      [-metrics out.prom|out.json] [-faults plan.json]
//	      [-checkpoint-every n]
//	overd -serve :9090 [-serve-workers n] [-serve-queue n]
//	      [-serve-cache-dir dir] [-serve-journal-dir dir] [-serve-flight n]
//
// With -serve, overd runs the multi-tenant job service daemon instead of a
// one-shot run (POST /jobs et al.; see internal/serve) until SIGINT or
// SIGTERM, draining in-flight jobs before exiting. The daemon takes only
// -serve* flags and exports its own metrics at /metrics.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"overd"
	"overd/internal/grid"
	"overd/internal/plot3d"
	"overd/internal/report"
	"overd/internal/serve"
)

func main() {
	caseName := flag.String("case", "airfoil", "airfoil, deltawing or storesep")
	nodes := flag.Int("nodes", 12, "simulated processor count")
	machineName := flag.String("machine", "SP2", "SP2 or SP")
	steps := flag.Int("steps", 5, "timesteps")
	scale := flag.Float64("scale", 1, "gridpoint budget multiplier (1 = paper size)")
	fo := flag.Float64("fo", math.Inf(1), "dynamic load-balance factor (Algorithm 2); +Inf disables")
	checkEvery := flag.Int("check", 5, "steps between dynamic-balance checks")
	workers := flag.Int("workers", 0, "bound on rank goroutines running simultaneously (0 = unbounded; results are bit-identical at any value)")
	balancerName := flag.String("balancer", "", "load balancer: "+strings.Join(overd.BalancerNames(), ", ")+" (empty resolves from -fo)")
	dump := flag.Bool("dump", false, "print the grid system and static partition, then exit")
	fieldOut := flag.String("field", "", "write a field CSV of the given grid id after the run (format gridID:file.csv)")
	xyzOut := flag.String("xyz", "", "write the grid system as a PLOT3D XYZ file after the run (suffix .g for ASCII, .gb for binary)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of the run (open in chrome://tracing or Perfetto)")
	traceSummary := flag.Bool("trace-summary", false, "print per-rank busy/wait breakdowns and the critical path")
	faultsPath := flag.String("faults", "", "JSON fault plan: stragglers, degraded links, message loss, rank crashes (see package fault)")
	checkpointEvery := flag.Int("checkpoint-every", 0, "steps between crash-recovery checkpoints (0 = auto when the plan crashes ranks, negative = off)")
	metricsOut := flag.String("metrics", "", "write run metrics after the run (.prom/.txt = Prometheus text, .json = JSON)")
	serveAddr := flag.String("serve", "", "run the multi-tenant job service daemon on this host:port instead of a one-shot run (takes only -serve* flags; metrics at /metrics)")
	serveWorkers := flag.Int("serve-workers", 0, "job-service worker-pool size (0 = default)")
	serveQueue := flag.Int("serve-queue", 0, "job-service admission queue depth (0 = default)")
	serveCacheDir := flag.String("serve-cache-dir", "", "job-service persistent result-cache directory (empty = memory only)")
	serveJournalDir := flag.String("serve-journal-dir", "", "job-service durable journal directory: admitted jobs are fsync'd and replayed after a crash (empty = no journal)")
	serveFlight := flag.Int("serve-flight", 0, "job-service span flight-recorder capacity: the last N finished jobs keep wall-clock spans for GET /jobs/{id}/spans and /status (0 = default 64, negative = disable the span layer)")
	flag.Parse()

	if *serveAddr != "" {
		// Daemon mode: no one-shot run; the POST body picks case/machine/
		// scale per job, so a one-shot run flag on the command line is an
		// error rather than silently ignored.
		var oneShot []string
		flag.Visit(func(fl *flag.Flag) {
			if !strings.HasPrefix(fl.Name, "serve") {
				oneShot = append(oneShot, "-"+fl.Name)
			}
		})
		if err := validateServe(*serveAddr, oneShot); err != nil {
			log.Fatal(err)
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		err := runJobService(ctx, *serveAddr, serve.Config{
			Workers: *serveWorkers, QueueDepth: *serveQueue,
			CacheDir: *serveCacheDir, JournalDir: *serveJournalDir,
			FlightRecorder: *serveFlight,
			Logf:           log.Printf,
		}, func(bound string) {
			fmt.Printf("overd job service on http://%s — POST /jobs, GET /jobs/{id}[/result|/events|/spans], /status, /metrics (SIGINT/SIGTERM drains and exits)\n", bound)
		})
		if err != nil {
			log.Fatal(err)
		}
		return
	}

	v, err := validateRunFlags(runFlags{
		caseName: *caseName, nodes: *nodes, machineName: *machineName,
		steps: *steps, scale: *scale, fo: *fo, balancer: *balancerName,
		checkEvery: *checkEvery, checkpointEvery: *checkpointEvery,
		faultsPath: *faultsPath, fieldOut: *fieldOut,
		metricsOut: *metricsOut, workers: *workers,
	})
	if err != nil {
		log.Fatal(err)
	}
	c, m := v.c, v.m

	fmt.Printf("case %s: %d grids, %d composite gridpoints\n",
		c.Name, len(c.Sys.Grids), c.Sys.NPoints())

	if *dump {
		fmt.Println("\ncomponent grids:")
		for i, g := range c.Sys.Grids {
			kind := "curvilinear"
			if g.Cartesian {
				kind = "cartesian"
			}
			tags := ""
			if g.Moving {
				tags += " moving"
			}
			if g.Viscous {
				tags += " viscous"
			}
			if g.Turbulent {
				tags += " turbulent"
			}
			fmt.Printf("  %2d %-16s %4dx%3dx%3d = %7d points  %s%s\n",
				i, g.Name, g.NI, g.NJ, g.NK, g.NPoints(), kind, tags)
		}
		return
	}

	cfg := overd.Config{
		Case: c, Nodes: *nodes, Machine: m, Steps: *steps,
		Fo: *fo, CheckInterval: *checkEvery, Balancer: *balancerName,
		CheckpointEvery: *checkpointEvery, Workers: *workers,
	}
	if *faultsPath != "" {
		plan, err := overd.LoadFaultPlan(*faultsPath)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Faults = plan
		fmt.Printf("fault plan %s: %d stragglers, %d degraded links, %d loss rules, %d crashes (seed %d)\n",
			*faultsPath, len(plan.Stragglers), len(plan.Links), len(plan.Losses),
			len(plan.Crashes), plan.Seed)
	}
	var rec *overd.TraceRecorder
	if *traceOut != "" || *traceSummary {
		rec = overd.NewTraceRecorder()
		cfg.Trace = rec
	}
	var reg *overd.MetricsRegistry
	if *metricsOut != "" {
		reg = overd.NewMetricsRegistry()
		cfg.Metrics = reg
		if cfg.Trace == nil {
			// The post-run roll-up copies per-rank busy/wait totals out of
			// the trace summary; attach a recorder so they are present even
			// when no trace output was requested.
			cfg.Trace = overd.NewTraceRecorder()
		}
	}
	var spec overd.SampleSpec
	spec.FieldGrid, spec.FieldK, spec.SurfaceGrid = -1, -1, -1
	if v.fieldGrid >= 0 {
		spec.FieldGrid = v.fieldGrid
		cfg.Sample = &spec
	}

	res, err := overd.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if v.fieldGrid >= 0 && len(res.Field) > 0 {
		if err := writeField(v.fieldFile, res.Field); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d field samples to %s\n", len(res.Field), v.fieldFile)
	}
	if *xyzOut != "" {
		if err := writeXYZ(*xyzOut, c.Sys.Grids); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote PLOT3D grid system (with iblank) to %s\n", *xyzOut)
	}

	fmt.Printf("\nprocessors per grid (balancer %s): %v  (τ = %.3f)\n",
		res.Config.Balancer, res.Np, res.Tau)
	fmt.Printf("IGBPs: %d  orphans: %d\n", res.IGBPs, res.Orphans)
	if res.Rebalances > 0 {
		fmt.Printf("step-boundary repartitions: %d (%d gridpoints moved)\n",
			res.Rebalances, res.MovedPoints)
	}
	fmt.Printf("\nvirtual time: %.3f s over %d steps (%.3f s/step) on the %s\n",
		res.TotalTime, len(res.Steps), res.TimePerStep(), m.Name)
	fmt.Printf("module breakdown: flow %.3fs  motion %.3fs  connect %.3fs  balance %.3fs\n",
		res.FlowTime, res.MotionTime, res.ConnectTime, res.BalanceTime)
	fmt.Printf("avg Mflops/node: %.1f   %%time in DCF3D: %.1f%%\n",
		res.MflopsPerNode(), res.PctConnect())

	fs := report.FaultStats{
		Recoveries: res.Recoveries, RecoverySteps: res.RecoverySteps,
		RecoveryTime: res.RecoveryTime,
		Checkpoints:  res.Checkpoints, CheckpointTime: res.CheckpointTime,
		StartNodes: *nodes, FinalNodes: res.FinalNodes,
		DroppedMsgs: res.DroppedMsgs, SendRetries: res.SendRetries,
		FaultWaitTime: res.FaultWaitTime,
	}
	if cfg.Faults != nil || fs.Any() {
		fmt.Println()
		report.FaultSummary(os.Stdout, fs)
	}

	if rec != nil {
		if *traceSummary {
			fmt.Printf("\nwait breakdown (rank 0): flow %.3fs  motion %.3fs  connect %.3fs  balance %.3fs  (%.1f%% of run blocked)\n",
				res.FlowWaitTime, res.MotionWaitTime, res.ConnectWaitTime,
				res.BalanceWaitTime, res.PctWait())
			s := rec.Summarize()
			fmt.Println()
			report.BusyWaitGantt(os.Stdout, s, 48)
			fmt.Println()
			report.PhaseWaitTable(os.Stdout, s, rec.PhaseLabel)
			fmt.Println()
			rec.CriticalPath().Fprint(os.Stdout, rec)
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				log.Fatal(err)
			}
			if err := rec.WriteChromeTrace(f); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote Chrome trace (%d ranks) to %s — open in chrome://tracing or https://ui.perfetto.dev\n",
				rec.NRanks(), *traceOut)
		}
	}

	if reg != nil {
		f, err := os.Create(*metricsOut)
		if err != nil {
			log.Fatal(err)
		}
		werr := error(nil)
		if strings.HasSuffix(strings.ToLower(*metricsOut), ".json") {
			werr = reg.WriteJSON(f)
		} else {
			werr = reg.WritePrometheus(f)
		}
		if werr != nil {
			log.Fatal(werr)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote run metrics (%d ranks) to %s\n", reg.NRanks(), *metricsOut)
	}
}

// writeField writes sampled flow states to file as CSV.
func writeField(file string, samples []overd.FieldSample) error {
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "x,y,z,mach,rho,p,iblank")
	for _, s := range samples {
		fmt.Fprintf(w, "%.5f,%.5f,%.5f,%.5f,%.5f,%.5f,%d\n",
			s.X, s.Y, s.Z, s.Mach, s.Rho, s.P, s.IBlank)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeXYZ writes the grid system to file as PLOT3D XYZ with iblank: ASCII,
// or binary when the name ends in .gb.
func writeXYZ(file string, grids []*grid.Grid) error {
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	format := plot3d.ASCII
	if strings.HasSuffix(file, ".gb") {
		format = plot3d.Binary
	}
	if err := plot3d.WriteXYZ(f, grids, format); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
