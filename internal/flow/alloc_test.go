package flow

import (
	"runtime"
	"testing"

	"overd/internal/gridgen"
	"overd/internal/machine"
	"overd/internal/par"
)

// pinOneProc pins GOMAXPROCS to 1 for the duration of the test.
// testing.AllocsPerRun counts every allocation in the process during its
// runs, so at GOMAXPROCS>1 a concurrently scheduled goroutine (GC worker,
// another rank) can charge allocations to the measured hot path and flake
// the zero-alloc assertion — the measurement needs serial execution even
// though the measured code is parallel-safe.
func pinOneProc(t *testing.T) {
	t.Helper()
	old := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// allocBlock builds the same isolated single-rank block the benchmarks use.
func allocBlock() (*Block, *par.World) {
	g := gridgen.AirfoilOGrid(0, "airfoil", 128, 32, 3)
	g.Turbulent = true
	fs := Freestream{Mach: 0.8, Re: 1e6}
	w := par.NewWorld(1, machine.SP2())
	blk := NewBlock(g, g.Full(), fs)
	blk.Nbr[0][0] = Neighbor{Rank: 0, Wrap: true}
	blk.Nbr[0][1] = Neighbor{Rank: 0, Wrap: true}
	return blk, w
}

// The fused RHS kernel must not allocate once scratch is warm: the hot path
// is re-run every timestep and any per-call garbage shows up directly in
// the wall-clock tables.
func TestComputeRHSZeroAlloc(t *testing.T) {
	pinOneProc(t)
	blk, _ := allocBlock()
	blk.ComputeRHS(0.01) // warm scratch
	if n := testing.AllocsPerRun(10, func() {
		blk.ComputeRHS(0.01)
	}); n != 0 {
		t.Fatalf("ComputeRHS allocates %v times per call, want 0", n)
	}
}

// The diagonalized ADI sweep (including the pipelined line solves and the
// update application) must be allocation-free in steady state.
func TestSolveADIZeroAlloc(t *testing.T) {
	pinOneProc(t)
	blk, w := allocBlock()
	w.Run(func(r *par.Rank) {
		blk.ComputeRHS(0.01)
		blk.SolveADI(r, 0.01) // warm scratch and pools
		if n := testing.AllocsPerRun(10, func() {
			blk.SolveADI(r, 0.01)
		}); n != 0 {
			t.Fatalf("SolveADI allocates %v times per call, want 0", n)
		}
	})
}

// ApplyUpdate is a pure sweep over Q/DQ and may never allocate.
func TestApplyUpdateZeroAlloc(t *testing.T) {
	pinOneProc(t)
	blk, w := allocBlock()
	w.Run(func(r *par.Rank) {
		blk.ComputeRHS(0.01)
		blk.SolveADI(r, 0.01)
		if n := testing.AllocsPerRun(10, func() {
			blk.ApplyUpdate()
		}); n != 0 {
			t.Fatalf("ApplyUpdate allocates %v times per call, want 0", n)
		}
	})
}

// Halo pack/unpack reuse envelope buffers; with a warm buffer the row-wise
// bulk copies must not allocate.
func TestHaloPackUnpackZeroAlloc(t *testing.T) {
	pinOneProc(t)
	blk, _ := allocBlock()
	buf := blk.packFace(nil, 0, 0)
	data := append([]float64(nil), buf...)
	if n := testing.AllocsPerRun(10, func() {
		buf = blk.packFace(buf[:0], 0, 0)
	}); n != 0 {
		t.Fatalf("packFace allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() {
		blk.unpackFace(0, 0, data)
	}); n != 0 {
		t.Fatalf("unpackFace allocates %v times per call, want 0", n)
	}
}

// The Baldwin-Lomax pass reuses per-line scratch from the block.
func TestComputeTurbulenceZeroAlloc(t *testing.T) {
	pinOneProc(t)
	blk, _ := allocBlock()
	blk.ComputeTurbulence() // warm scratch
	if n := testing.AllocsPerRun(10, func() {
		blk.ComputeTurbulence()
	}); n != 0 {
		t.Fatalf("ComputeTurbulence allocates %v times per call, want 0", n)
	}
}

// Rebuilding a block for the box it already has — every repartition that
// leaves a rank's box unchanged — reuses all of its storage, scratch
// included.
func TestBlockResetZeroAlloc(t *testing.T) {
	pinOneProc(t)
	blk, _ := allocBlock()
	blk.ensureScratch()
	g, own, fs := blk.G, blk.Own, blk.FS
	if n := testing.AllocsPerRun(5, func() {
		blk.Reset(g, own, fs)
		blk.ensureScratch()
	}); n != 0 {
		t.Fatalf("same-box Reset allocates %v times per call, want 0", n)
	}
}
