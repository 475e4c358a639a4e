package main

import (
	"fmt"
	"net"
	"path/filepath"
	"strconv"
	"strings"

	"overd"
)

// runFlags carries the raw command-line values; validateRunFlags turns them
// into runnable pieces or a clear error. Keeping validation out of main()
// makes the edge cases testable without spawning the binary.
type runFlags struct {
	caseName        string
	nodes           int
	machineName     string
	steps           int
	scale           float64
	fo              float64
	balancer        string
	checkEvery      int
	checkpointEvery int
	faultsPath      string
	fieldOut        string
	metricsOut      string
	workers         int
}

// validated holds the parts of the config that validation resolves.
type validated struct {
	c         *overd.Case
	m         overd.Machine
	fieldGrid int
	fieldFile string
}

// validateServe checks the job-service daemon's command line: -serve runs
// the daemon and nothing else, so oneShot — the one-shot run flags also
// given, such as -metrics — must be empty, and addr must have host:port
// shape.
func validateServe(addr string, oneShot []string) error {
	if len(oneShot) > 0 {
		return fmt.Errorf("-serve runs the job-service daemon only and cannot be combined with %s; the daemon exports its own metrics at /metrics",
			strings.Join(oneShot, " "))
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("-serve %q: want host:port (e.g. :9090 or localhost:9090): %v", addr, err)
	}
	if p, err := strconv.Atoi(port); err != nil || p < 0 || p > 65535 {
		return fmt.Errorf("-serve %q: port %q is not a number in 0..65535", addr, port)
	}
	_ = host // empty host = all interfaces, fine
	return nil
}

func validateRunFlags(f runFlags) (validated, error) {
	var v validated
	if f.nodes <= 0 {
		return v, fmt.Errorf("-nodes %d: the simulated machine needs at least one processor", f.nodes)
	}
	if f.steps < 0 {
		return v, fmt.Errorf("-steps %d: the timestep count cannot be negative", f.steps)
	}
	if f.scale <= 0 {
		return v, fmt.Errorf("-scale %g: the gridpoint budget multiplier must be positive", f.scale)
	}
	if f.fo < 0 {
		return v, fmt.Errorf("-fo %g: the load-balance factor cannot be negative (use +Inf or 0 to disable)", f.fo)
	}
	if f.checkEvery <= 0 {
		return v, fmt.Errorf("-check %d: the balance-check interval must be positive", f.checkEvery)
	}
	if f.workers < 0 {
		return v, fmt.Errorf("-workers %d: the parallelism bound cannot be negative (0 means unbounded)", f.workers)
	}
	if err := overd.ValidateBalancer(f.balancer, f.fo); err != nil {
		return v, fmt.Errorf("-balancer %v", err)
	}
	if f.checkpointEvery > 0 && f.faultsPath == "" {
		return v, fmt.Errorf("-checkpoint-every %d without -faults: checkpoints only matter when the fault plan can crash ranks", f.checkpointEvery)
	}
	if f.metricsOut != "" {
		switch ext := strings.ToLower(filepath.Ext(f.metricsOut)); ext {
		case ".prom", ".txt", ".json":
		default:
			return v, fmt.Errorf("-metrics %q: want a .prom/.txt (Prometheus text) or .json extension, got %q", f.metricsOut, ext)
		}
	}
	switch f.caseName {
	case "airfoil":
		v.c = overd.OscillatingAirfoil(f.scale)
	case "deltawing":
		v.c = overd.DescendingDeltaWing(f.scale)
	case "storesep":
		v.c = overd.StoreSeparation(f.scale)
	default:
		return v, fmt.Errorf("unknown case %q (valid: airfoil, deltawing, storesep)", f.caseName)
	}

	m, err := overd.MachineByName(f.machineName)
	if err != nil {
		return v, err
	}
	v.m = m

	v.fieldGrid = -1
	if f.fieldOut != "" {
		var gid int
		var file string
		if _, err := fmt.Sscanf(f.fieldOut, "%d:%s", &gid, &file); err != nil {
			return v, fmt.Errorf("-field wants gridID:file.csv (got %q): %v", f.fieldOut, err)
		}
		if gid < 0 || gid >= len(v.c.Sys.Grids) {
			return v, fmt.Errorf("-field grid %d out of range: case %s has grids 0..%d", gid, v.c.Name, len(v.c.Sys.Grids)-1)
		}
		v.fieldGrid = gid
		v.fieldFile = file
	}
	return v, nil
}
