// Package serve is the multi-tenant simulation job service: a canonical job
// model, a bounded worker pool with admission control and per-tenant fair
// scheduling, a content-addressed result cache, and the HTTP API that
// cmd/overd -serve mounts.
//
// The whole design leans on one property the rest of the repository pins
// with golden tests: a run's tables, traces and metrics are a pure function
// of its request. Two requests that normalize to the same canonical bytes
// therefore hash to the same key and may share one result — a cache hit
// serves byte-identical artifacts without executing a single solver step.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"overd"
)

// Job is one simulation request. The zero values of optional fields are
// filled by Normalize so that two requests meaning the same run serialize
// to the same canonical bytes (and so hash to the same cache key).
//
// Tenant is deliberately NOT part of the canonical form: who asked for a
// result does not change what the result is, and cross-tenant sharing of
// cached artifacts is the point of content addressing.
type Job struct {
	// Case is the paper case: airfoil, deltawing or storesep.
	Case string `json:"case"`
	// Machine is the modeled machine (SP2, SP, YMP, C90). Default SP2.
	Machine string `json:"machine"`
	// Nodes is the simulated processor count. Default 8.
	Nodes int `json:"nodes"`
	// Steps is the measured timestep count. Default 5.
	Steps int `json:"steps"`
	// Scale multiplies the case's gridpoint budget. Default 1.
	Scale float64 `json:"scale"`
	// Fo is the dynamic load-balance factor (Algorithm 2); 0 — JSON has
	// no +Inf — means disabled (pure static balancing).
	Fo float64 `json:"fo"`
	// CheckEvery is the number of steps between dynamic-balance checks.
	// Default 5.
	CheckEvery int `json:"check_every"`
	// Balancer selects the load-balancing strategy by registry name
	// (overd.BalancerNames). Empty resolves from Fo — "dynamic" when
	// Fo > 0, "static" otherwise — so older requests hash as before the
	// field's introduction only in spelling, not in meaning: the resolved
	// name is canonical and participates in the cache key.
	Balancer string `json:"balancer"`
	// Tables optionally selects paper tables ("1".."6", "5f") to
	// regenerate at this job's Scale/Steps and append to the tables
	// artifact after the run's own rows.
	Tables []string `json:"tables,omitempty"`
	// Faults is an inline deterministic fault plan (see package fault).
	Faults *overd.FaultPlan `json:"faults,omitempty"`
	// CheckpointEvery is the steps between crash-recovery checkpoints;
	// meaningful only with a fault plan (0 = auto when the plan crashes
	// ranks).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// Seed overrides the fault plan's loss-hash seed; rejected without a
	// plan (it would be dead weight in the cache key).
	Seed int64 `json:"seed,omitempty"`

	// Deadline is a wall-clock budget in seconds: the job is cancelled if
	// it is still running past it, and rejected at admission (503) when
	// the estimated queue wait alone already exceeds it. 0 means none.
	// Like Tenant, it is excluded from the canonical form: how long the
	// caller is willing to wait does not change what the result is.
	Deadline float64 `json:"deadline,omitempty"`
	// MaxSteps caps the solver timesteps spent on this job (a compute
	// budget: the run is cancelled, not truncated-and-returned, when it
	// would exceed it). 0 means unlimited. Excluded from the canonical
	// form for the same reason as Deadline.
	MaxSteps int `json:"max_steps,omitempty"`
	// Workers bounds how many of this job's rank goroutines run host code
	// simultaneously (see overd.Config.Workers). 0 means unbounded. Like
	// Deadline it is excluded from the canonical form: parallelism is a
	// host-side resource knob, and the runtime guarantees any value yields
	// byte-identical results — jobs differing only here share one cache
	// entry by construction.
	Workers int `json:"workers_per_job,omitempty"`

	// Tenant is the fairness bucket the job is scheduled under. Filled
	// from the X-Overd-Tenant header when absent; excluded from the
	// canonical form and the hash.
	Tenant string `json:"tenant,omitempty"`
}

// Limits caps the resources one job may request, so an absurd submission
// gets a clear 400 instead of attempting a giant world build. Zero values
// pick the package defaults (DefaultLimits); -1 disables a single cap.
type Limits struct {
	// MaxNodes caps the simulated processor count.
	MaxNodes int
	// MaxSteps caps the requested timestep count.
	MaxSteps int
	// MaxScale caps the gridpoint budget multiplier.
	MaxScale float64
}

// DefaultLimits is the admission guard applied when a Limits field is zero:
// generous enough for every paper table at severalfold scale, small enough
// that a typo ("nodes": 1000000) cannot take the service down.
var DefaultLimits = Limits{MaxNodes: 256, MaxSteps: 10000, MaxScale: 64}

// withDefaults fills zero fields from DefaultLimits and maps -1 to "off".
func (l Limits) withDefaults() Limits {
	if l.MaxNodes == 0 {
		l.MaxNodes = DefaultLimits.MaxNodes
	}
	if l.MaxSteps == 0 {
		l.MaxSteps = DefaultLimits.MaxSteps
	}
	if l.MaxScale == 0 {
		l.MaxScale = DefaultLimits.MaxScale
	}
	return l
}

// caseByName validates a case name without building the (large) grid
// system; the builder itself runs later, on a worker.
func caseByName(name string) (func(scale float64) *overd.Case, error) {
	switch name {
	case "airfoil":
		return overd.OscillatingAirfoil, nil
	case "deltawing":
		return overd.DescendingDeltaWing, nil
	case "storesep":
		return overd.StoreSeparation, nil
	}
	return nil, fmt.Errorf("unknown case %q (valid: airfoil, deltawing, storesep)", name)
}

// Normalize validates the job under the default resource limits and
// returns a canonical copy: defaults filled, machine name resolved to its
// canonical spelling, table selection deduplicated and sorted into emission
// order, empty fault plans dropped, the seed folded into the plan, and the
// tenant stripped. Two jobs that mean the same run normalize to identical
// structs.
func (j Job) Normalize() (Job, error) {
	return j.NormalizeLimits(Limits{})
}

// NormalizeLimits is Normalize under server-configured resource caps.
func (j Job) NormalizeLimits(lim Limits) (Job, error) {
	lim = lim.withDefaults()
	n := j
	n.Tenant = ""

	if n.Case == "" {
		return n, fmt.Errorf("job: missing case (valid: airfoil, deltawing, storesep)")
	}
	if _, err := caseByName(n.Case); err != nil {
		return n, fmt.Errorf("job: %w", err)
	}
	if n.Machine == "" {
		n.Machine = "SP2"
	}
	m, err := overd.MachineByName(n.Machine)
	if err != nil {
		return n, fmt.Errorf("job: %w", err)
	}
	n.Machine = m.Name
	if n.Nodes == 0 {
		n.Nodes = 8
	}
	if n.Nodes < 0 {
		return n, fmt.Errorf("job: nodes %d: the simulated machine needs at least one processor", n.Nodes)
	}
	if lim.MaxNodes > 0 && n.Nodes > lim.MaxNodes {
		return n, fmt.Errorf("job: nodes %d exceeds this server's limit of %d", n.Nodes, lim.MaxNodes)
	}
	if n.Steps == 0 {
		n.Steps = 5
	}
	if n.Steps < 0 {
		return n, fmt.Errorf("job: steps %d: the timestep count must be positive", n.Steps)
	}
	if lim.MaxSteps > 0 && n.Steps > lim.MaxSteps {
		return n, fmt.Errorf("job: steps %d exceeds this server's limit of %d", n.Steps, lim.MaxSteps)
	}
	if n.Scale == 0 {
		n.Scale = 1
	}
	if n.Scale < 0 {
		return n, fmt.Errorf("job: scale %g: the gridpoint budget multiplier must be positive", n.Scale)
	}
	if lim.MaxScale > 0 && n.Scale > lim.MaxScale {
		return n, fmt.Errorf("job: scale %g exceeds this server's limit of %g", n.Scale, lim.MaxScale)
	}
	if n.Fo < 0 {
		return n, fmt.Errorf("job: fo %g: the load-balance factor cannot be negative (0 disables)", n.Fo)
	}
	if n.CheckEvery == 0 {
		n.CheckEvery = 5
	}
	if n.CheckEvery < 0 {
		return n, fmt.Errorf("job: check_every %d: the balance-check interval must be positive", n.CheckEvery)
	}
	if n.Balancer == "" {
		if n.Fo > 0 {
			n.Balancer = "dynamic"
		} else {
			n.Balancer = "static"
		}
	}
	if err := overd.ValidateBalancer(n.Balancer, foRuntime(n.Fo)); err != nil {
		return n, fmt.Errorf("job: %w", err)
	}

	if len(n.Tables) > 0 {
		sel, err := overd.ParseTableSelection(strings.Join(n.Tables, ","))
		if err != nil {
			return n, fmt.Errorf("job: %w", err)
		}
		n.Tables = nil
		for _, id := range overd.TableIDs() {
			if sel[id] {
				n.Tables = append(n.Tables, id)
			}
		}
	}

	if n.Faults != nil {
		if err := n.Faults.Validate(); err != nil {
			return n, fmt.Errorf("job: %w", err)
		}
		if n.Faults.Empty() && n.Faults.Seed == 0 && n.Seed == 0 {
			n.Faults = nil
		}
	}
	if n.Faults == nil {
		if n.Seed != 0 {
			return n, fmt.Errorf("job: seed %d without a fault plan has no effect on a deterministic run", n.Seed)
		}
		if n.CheckpointEvery > 0 {
			return n, fmt.Errorf("job: checkpoint_every %d without faults: checkpoints only matter when the plan can crash ranks", n.CheckpointEvery)
		}
	} else if n.Seed != 0 {
		// One canonical home for the seed: inside the plan.
		plan := *n.Faults
		plan.Seed = n.Seed
		n.Faults = &plan
		n.Seed = 0
	}
	if n.CheckpointEvery < 0 {
		n.CheckpointEvery = -1 // all negatives mean the same thing: off
	}
	if n.Deadline < 0 {
		return n, fmt.Errorf("job: deadline %g: the wall-clock budget cannot be negative (0 means none)", n.Deadline)
	}
	if n.MaxSteps < 0 {
		return n, fmt.Errorf("job: max_steps %d: the step budget cannot be negative (0 means unlimited)", n.MaxSteps)
	}
	if n.MaxSteps > 0 && n.MaxSteps < n.Steps {
		return n, fmt.Errorf("job: max_steps %d is below the %d steps the run needs; it would always be cancelled", n.MaxSteps, n.Steps)
	}
	if n.Workers < 0 {
		return n, fmt.Errorf("job: workers_per_job %d: the parallelism bound cannot be negative (0 means unbounded)", n.Workers)
	}
	return n, nil
}

// foRuntime maps the job-model load-balance factor (0 = disabled, JSON has
// no +Inf) to the runtime convention (+Inf = disabled) that the balancer
// validation rules are written against.
func foRuntime(fo float64) float64 {
	if fo > 0 {
		return fo
	}
	return math.Inf(1)
}

// Canonical returns the canonical JSON bytes of the job. It must be called
// on a normalized job; field order is the struct declaration order, which
// encoding/json emits deterministically. Tenant, Deadline, MaxSteps and
// Workers are excluded: they say who wants the result, how long they'll
// wait, and how many cores to burn — not what the result is — so jobs
// differing only there share one cache entry.
func (j Job) Canonical() []byte {
	j.Tenant = ""
	j.Deadline = 0
	j.MaxSteps = 0
	j.Workers = 0
	b, err := json.Marshal(j)
	if err != nil {
		// Job has no cyclic or non-marshalable fields; this is unreachable.
		panic(fmt.Sprintf("serve: canonical marshal: %v", err))
	}
	return b
}

// Hash returns the content address of a normalized job: the hex SHA-256 of
// its canonical bytes.
func (j Job) Hash() string {
	sum := sha256.Sum256(j.Canonical())
	return hex.EncodeToString(sum[:])
}

// ParseJob decodes, validates and normalizes a JSON job request under the
// default resource limits. Unknown fields are rejected so that a typo
// ("scael") cannot silently select the default and collide with a
// different job's cache entry.
func ParseJob(data []byte) (Job, error) {
	return ParseJobLimits(data, Limits{})
}

// ParseJobLimits is ParseJob under server-configured resource caps.
func ParseJobLimits(data []byte, lim Limits) (Job, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var j Job
	if err := dec.Decode(&j); err != nil {
		return j, fmt.Errorf("job: parsing request: %v", err)
	}
	tenant := j.Tenant
	n, err := j.NormalizeLimits(lim)
	if err != nil {
		return n, err
	}
	n.Tenant = tenant
	return n, nil
}
