package main

import (
	"math"
	"strings"
	"testing"
)

// good returns a valid baseline flag set; each case mutates one field.
func good() runFlags {
	return runFlags{
		caseName: "airfoil", nodes: 12, machineName: "SP2",
		steps: 5, scale: 1, fo: math.Inf(1), checkEvery: 5,
	}
}

func TestValidateRunFlags(t *testing.T) {
	cases := []struct {
		name    string
		mut     func(*runFlags)
		wantErr string // substring of the error, "" = must succeed
	}{
		{"baseline", func(f *runFlags) {}, ""},
		{"zero nodes", func(f *runFlags) { f.nodes = 0 }, "at least one processor"},
		{"negative nodes", func(f *runFlags) { f.nodes = -4 }, "at least one processor"},
		{"negative steps", func(f *runFlags) { f.steps = -1 }, "cannot be negative"},
		{"zero steps ok", func(f *runFlags) { f.steps = 0 }, ""},
		{"zero scale", func(f *runFlags) { f.scale = 0 }, "must be positive"},
		{"negative scale", func(f *runFlags) { f.scale = -0.5 }, "must be positive"},
		{"negative fo", func(f *runFlags) { f.fo = -1 }, "cannot be negative"},
		{"zero fo ok", func(f *runFlags) { f.fo = 0 }, ""},
		{"zero check interval", func(f *runFlags) { f.checkEvery = 0 }, "must be positive"},
		{"empty balancer ok", func(f *runFlags) { f.balancer = "" }, ""},
		{"static balancer ok", func(f *runFlags) { f.balancer = "static" }, ""},
		{"sfc balancer ok", func(f *runFlags) { f.balancer = "sfc" }, ""},
		{"diffusive balancer ok", func(f *runFlags) { f.balancer = "diffusive" }, ""},
		{"dynamic balancer with fo ok", func(f *runFlags) {
			f.balancer = "dynamic"
			f.fo = 2
		}, ""},
		{"dynamic balancer without fo", func(f *runFlags) { f.balancer = "dynamic" }, "finite load factor"},
		{"static balancer with fo", func(f *runFlags) {
			f.balancer = "static"
			f.fo = 2
		}, "no effect"},
		{"unknown balancer", func(f *runFlags) { f.balancer = "magic" }, `unknown balancer "magic"`},
		{"checkpoint without faults", func(f *runFlags) { f.checkpointEvery = 3 }, "without -faults"},
		{"checkpoint with faults ok", func(f *runFlags) {
			f.checkpointEvery = 3
			f.faultsPath = "plan.json"
		}, ""},
		{"checkpoint auto without faults ok", func(f *runFlags) { f.checkpointEvery = 0 }, ""},
		{"checkpoint disabled without faults ok", func(f *runFlags) { f.checkpointEvery = -1 }, ""},
		{"unknown case", func(f *runFlags) { f.caseName = "wing47" }, `unknown case "wing47"`},
		{"unknown machine", func(f *runFlags) { f.machineName = "CM5" }, "CM5"},
		{"deltawing ok", func(f *runFlags) { f.caseName = "deltawing" }, ""},
		{"storesep on SP ok", func(f *runFlags) {
			f.caseName = "storesep"
			f.machineName = "SP"
		}, ""},
		{"bad field format", func(f *runFlags) { f.fieldOut = "out.csv" }, "gridID:file.csv"},
		{"field grid out of range", func(f *runFlags) { f.fieldOut = "99:out.csv" }, "out of range"},
		{"field ok", func(f *runFlags) { f.fieldOut = "0:out.csv" }, ""},
		{"metrics prom ok", func(f *runFlags) { f.metricsOut = "run.prom" }, ""},
		{"metrics txt ok", func(f *runFlags) { f.metricsOut = "run.txt" }, ""},
		{"metrics json ok", func(f *runFlags) { f.metricsOut = "run.json" }, ""},
		{"metrics bad extension", func(f *runFlags) { f.metricsOut = "run.csv" }, ".prom/.txt"},
		{"metrics no extension", func(f *runFlags) { f.metricsOut = "metricsfile" }, ".prom/.txt"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := good()
			c.mut(&f)
			v, err := validateRunFlags(f)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if v.c == nil {
					t.Fatal("valid flags returned nil case")
				}
				if v.m.Name == "" {
					t.Fatal("valid flags returned zero machine")
				}
				return
			}
			if err == nil {
				t.Fatalf("want error containing %q, got nil", c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not contain %q", err, c.wantErr)
			}
		})
	}

	// -serve runs the job-service daemon and nothing else: one-shot run
	// flags next to it are rejected, and the address must be host:port.
	serveCases := []struct {
		name    string
		addr    string
		oneShot []string
		wantErr string
	}{
		{"serve alone ok (job-service daemon)", ":9090", nil, ""},
		{"serve alone port 0 ok", "127.0.0.1:0", nil, ""},
		{"serve alone missing port", "localhost", nil, "host:port"},
		{"serve with metrics rejected", ":9090", []string{"-metrics"}, "daemon exports its own metrics at /metrics"},
		{"serve with run flags rejected", ":9090", []string{"-case", "-steps"}, "-case -steps"},
		{"serve host ok", "localhost:0", nil, ""},
		{"serve missing port", "localhost", nil, "host:port"},
		{"serve non-numeric port", ":http", nil, "0..65535"},
		{"serve port out of range", ":70000", nil, "0..65535"},
	}
	for _, c := range serveCases {
		t.Run(c.name, func(t *testing.T) {
			err := validateServe(c.addr, c.oneShot)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error containing %q, got nil", c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not contain %q", err, c.wantErr)
			}
		})
	}
}
