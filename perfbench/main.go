// Command perfbench is the repository's benchmark. It runs one workload —
// two paper-case solves (airfoil-fine, storesep-dyn) and a job-service mix
// (service-mix) — for a fixed wall-clock budget, checks every output
// against the determinism contract, prints each metric by name with its
// unit, host and inputs, and ends with one JSON line:
//
//	go run . -workload airfoil-fine -seed 1 -seconds 30 -trace 0
//
// -trace 0 measures the end-to-end metrics through the program's own entry
// points (core.Run, the HTTP API). -trace 1 is a separate pass that gives
// the per-layer numbers from a benchmark-side copy of the step loop and the
// service's span records. See README.md for the workloads and the metric
// map.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
)

// metric is one reported figure. Note carries its sample count, the base of
// a ratio, or how it was derived.
type metric struct {
	Name  string
	Value float64
	Unit  string
	Note  string
}

// report collects one run's metrics and its correctness tally.
type report struct {
	metrics   []metric
	attempted int
	failed    int
	problems  []string
	notes     []string
}

// note records an observation printed with the run's output.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) add(name string, v float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name, v, unit, note})
}

// fail counts one failed operation or correctness mismatch.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// workload is one named benchmark input.
type workload struct {
	name   string
	params string // one-line description of its inputs, printed in every output
	run    func(opt options, rep *report) error
}

// options are the command-line inputs shared by every workload.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	tmpDir  string
}

func workloads() []workload {
	var ws []workload
	for _, s := range solverSpecs() {
		s := s
		ws = append(ws, workload{name: s.Name, params: s.String(),
			run: func(opt options, rep *report) error { return runSolver(s, opt, rep) }})
	}
	svc := defaultService()
	ws = append(ws, workload{name: svc.Name, params: svc.String(),
		run: func(opt options, rep *report) error { return runService(svc, opt, rep) }})
	return ws
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run (airfoil-fine, storesep-dyn, service-mix)")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 30, "wall-clock seconds to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	tmp := flag.String("tmpdir", ".bench_build/tmp", "directory for the service's journal files")
	record := flag.String("record", "", "record the solver workloads' reference results to this file and exit")
	flag.Parse()

	if *record != "" {
		if err := recordReference(*record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	var w *workload
	var names []string
	for _, c := range workloads() {
		c := c
		names = append(names, c.name)
		if c.name == *name {
			w = &c
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (valid: %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	opt := options{seed: *seed, seconds: float64(*seconds), trace: *trace == 1, tmpDir: *tmp}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Fprintf(out, "# host %s\n", hostLine())
	fmt.Fprintf(out, "# inputs %s\n", w.params)
	out.Flush()

	rep := &report{}
	if err := w.run(opt, rep); err != nil {
		out.Flush()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, m := range rep.metrics {
		fmt.Fprintf(out, "%-24s %14.6g %-8s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	errRate := 0.0
	if rep.attempted > 0 {
		errRate = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(out, "%-24s %14.6g %-8s %d failed of %d attempted\n", "error_rate", errRate, "frac", rep.failed, rep.attempted)
	for _, n := range rep.notes {
		fmt.Fprintf(out, "# note: %s\n", n)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(out, "# mismatch: %s\n", p)
	}

	ms := make(map[string]map[string]any, len(rep.metrics))
	for _, m := range rep.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is not finite\n", m.Name)
			return 1
		}
		ms[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": rep.failed == 0, "attempted": rep.attempted,
		"failed": rep.failed, "metrics": ms,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if rep.failed > 0 || rep.attempted < 1 {
		return 1
	}
	return 0
}

// hostLine records the machine a result was measured on.
func hostLine() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d cpu=%q gomaxprocs=%d go=%s os=%s/%s",
		runtime.NumCPU(), cpu, runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
