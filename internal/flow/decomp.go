package flow

import (
	"fmt"

	"overd/internal/grid"
)

// BuildBlocks constructs the solver blocks for one component grid from its
// subdomain boxes and the world ranks that own them (boxes[i] is owned by
// ranks[i]); see BuildBlock.
func BuildBlocks(g *grid.Grid, boxes []grid.IBox, ranks []int, fs Freestream) []*Block {
	blocks := make([]*Block, len(boxes))
	for i := range boxes {
		blocks[i] = BuildBlock(new(Block), g, boxes, ranks, i, fs)
	}
	return blocks
}

// BuildBlock resets b (see Reset) to the subdomain boxes[idx] of grid g and
// wires its face neighbours among the grid's subdomains, owned by the world
// ranks in ranks — including the periodic wrap in i for O-grids. The
// decomposition must be regular (a product of one-dimensional splits, as
// produced by balance.Subdivide) so that each face has at most one
// neighbour. It returns b.
func BuildBlock(b *Block, g *grid.Grid, boxes []grid.IBox, ranks []int, idx int, fs Freestream) *Block {
	if len(boxes) != len(ranks) {
		panic("flow: boxes/ranks length mismatch")
	}
	box := boxes[idx]
	b.Reset(g, box, fs)
	if g.Viscous {
		// Default viscous direction: wall-normal η. Cases may widen this
		// with SetViscousDirs.
		b.viscDirs = [3]bool{false, true, false}
	}

	probes := [6]struct {
		dim, side int
		i, j, k   int
	}{
		{0, 0, box.ILo - 1, box.JLo, box.KLo},
		{0, 1, box.IHi + 1, box.JLo, box.KLo},
		{1, 0, box.ILo, box.JLo - 1, box.KLo},
		{1, 1, box.ILo, box.JHi + 1, box.KLo},
		{2, 0, box.ILo, box.JLo, box.KLo - 1},
		{2, 1, box.ILo, box.JLo, box.KHi + 1},
	}
	for _, p := range probes {
		i, j, k := p.i, p.j, p.k
		wrap := false
		if p.dim == 0 && g.PeriodicI() {
			if i < 0 {
				i, wrap = g.NI-1, true
			} else if i >= g.NI {
				i, wrap = 0, true
			}
		}
		if i < 0 || i >= g.NI || j < 0 || j >= g.NJ || k < 0 || k >= g.NK {
			continue
		}
		ni := -1
		for bi, nb := range boxes {
			if nb.Contains(i, j, k) {
				ni = bi
				break
			}
		}
		if ni < 0 {
			panic(fmt.Sprintf("flow: no owner for probe (%d,%d,%d) of grid %q", i, j, k, g.Name))
		}
		b.Nbr[p.dim][p.side] = Neighbor{Rank: ranks[ni], Wrap: wrap}
	}
	return b
}
