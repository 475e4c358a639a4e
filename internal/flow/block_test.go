package flow

import (
	"math"
	"slices"
	"testing"

	"overd/internal/geom"
	"overd/internal/grid"
	"overd/internal/gridgen"
	"overd/internal/par"
)

// sameBlock reports the first field in which a and b differ, bit for bit,
// or "" when every solver-state field matches.
func sameBlock(a, b *Block) string {
	floats := []struct {
		name string
		x, y []float64
	}{
		{"Q", a.Q, b.Q}, {"DQ", a.DQ, b.DQ}, {"RHS", a.RHS, b.RHS},
		{"XL", a.XL, b.XL}, {"YL", a.YL, b.YL}, {"ZL", a.ZL, b.ZL},
		{"XT", a.XT, b.XT}, {"YT", a.YT, b.YT}, {"ZT", a.ZT, b.ZT},
		{"Met", a.Met, b.Met}, {"Jac", a.Jac, b.Jac}, {"MuT", a.MuT, b.MuT},
	}
	for _, f := range floats {
		if len(f.x) != len(f.y) {
			return f.name + " length"
		}
		for i := range f.x {
			if math.Float64bits(f.x[i]) != math.Float64bits(f.y[i]) {
				return f.name
			}
		}
	}
	if (a.MuT == nil) != (b.MuT == nil) {
		return "MuT nil-ness"
	}
	if !slices.Equal(a.IBl, b.IBl) {
		return "IBl"
	}
	switch {
	case a.G != b.G || a.Own != b.Own || a.FS != b.FS || a.TwoD != b.TwoD:
		return "G/Own/FS/TwoD"
	case a.MI != b.MI || a.MJ != b.MJ || a.MK != b.MK:
		return "MI/MJ/MK"
	case a.Nbr != b.Nbr:
		return "Nbr"
	case a.viscDirs != b.viscDirs:
		return "viscDirs"
	case (a.scr == nil) != (b.scr == nil):
		return "scratch sizing"
	}
	return ""
}

// dirtyBlock builds a block on its own grid, runs it for two steps, then
// scribbles over every array and every scratch buffer, so that anything a
// reset fails to reinitialise shows up as a difference.
func dirtyBlock(t *testing.T, g *grid.Grid) *Block {
	t.Helper()
	b := BuildBlock(new(Block), g, []grid.IBox{g.Full()}, []int{0}, 0, Freestream{Mach: 0.7, Alpha: 0.1})
	runSerial(t, func(r *par.Rank) {
		b.FlowStep(r, 0.01)
		b.FlowStep(r, 0.01)
	})
	s := b.scr
	for _, f := range [][]float64{b.Q, b.DQ, b.RHS, b.XL, b.YL, b.ZL, b.XT, b.YT, b.ZT,
		b.Met, b.Jac, b.MuT, s.fw, s.pr, s.prim, s.sig[0], s.sig[1], s.sig[2], s.rhs0, s.cpAll,
		s.cIn, s.dIn, s.cOut, s.dOut, s.xIn, s.epsLn, s.blOmega, s.blY, s.blRho} {
		f = f[:cap(f)]
		for i := range f {
			f[i] = 0.5 + float64(i%7)
		}
	}
	for i := range b.IBl {
		b.IBl[i] = grid.IBFringe
	}
	for i := range s.upd {
		s.upd[i], s.stv[i] = true, true
	}
	b.Nbr[1][0] = Neighbor{Rank: 3, Wrap: true}
	b.viscDirs = [3]bool{true, true, true}
	return b
}

// Rebuilding a used block in place must leave exactly what a fresh block
// holds, whether its storage is larger or smaller than the new box needs,
// and the two must then step identically.
func TestBlockResetMatchesNewBlock(t *testing.T) {
	airfoil := func() *grid.Grid {
		g := gridgen.AirfoilOGrid(0, "airfoil", 48, 14, 5)
		g.Viscous, g.Turbulent = true, true
		return g
	}
	box3D := func(nx, ny, nz int) *grid.Grid {
		return gridgen.CartesianBox(0, "bg", nx, ny, nz,
			geom.Box{Min: geom.Vec3{X: -1, Y: -1, Z: -1}, Max: geom.Vec3{X: 1, Y: 1, Z: 1}})
	}
	fs := Freestream{Mach: 0.5, Alpha: 0.05}
	for _, target := range []struct {
		name string
		g    *grid.Grid
	}{{"turbulent-2D", airfoil()}, {"laminar-3D", box3D(10, 8, 6)}} {
		g := target.g
		n := (g.NI + 2*Halo) * (g.NJ + 2*Halo)
		if g.NK > 1 {
			n *= g.NK + 2*Halo
		}
		for _, dirty := range []struct {
			name string
			b    *Block
		}{
			{"larger", dirtyBlock(t, box3D(16, 12, 10))},
			{"smaller", dirtyBlock(t, gridgen.AirfoilOGrid(0, "small", 24, 8, 4))},
		} {
			d := dirty.b
			larger := cap(d.Q) >= 5*n
			if larger != (dirty.name == "larger") {
				t.Fatalf("%s block has capacity %d for %d points", dirty.name, cap(d.Q), n)
			}
			t.Run(target.name+"/"+dirty.name, func(t *testing.T) {
				want := BuildBlock(new(Block), g, []grid.IBox{g.Full()}, []int{0}, 0, fs)
				got := BuildBlock(d, g, []grid.IBox{g.Full()}, []int{0}, 0, fs)
				if f := sameBlock(got, want); f != "" {
					t.Fatalf("reset block differs from a fresh one in %s", f)
				}
				runSerial(t, func(r *par.Rank) {
					want.FlowStep(r, 0.02)
					got.FlowStep(r, 0.02)
				})
				if f := sameBlock(got, want); f != "" {
					t.Fatalf("after one step, reset block differs from a fresh one in %s", f)
				}
			})
		}
	}
}
