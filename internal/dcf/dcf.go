// Package dcf implements the distributed domain-connectivity solution of
// DCF3D as parallelized by Barszcz (paper §2.2): per-processor bounding
// boxes broadcast globally, hierarchical donor-search requests routed by
// bounding box, request servicing on the processor owning the candidate
// donor region, forwarding across processor boundaries when a stencil walk
// exits a subdomain, nth-level restart from the previous timestep's donors,
// and per-processor received-IGBP counters I(p) that feed the dynamic load
// balancer (Algorithm 2).
package dcf

import (
	"overd/internal/geom"
	"overd/internal/grid"
	"overd/internal/overset"
	"overd/internal/par"
)

// Approximate flop costs of connectivity work, for virtual-time accounting.
// The constants are calibrated so the connectivity share of total time
// lands in the paper's ranges (10-15%% for the airfoil, ~10%% for the delta
// wing, 17-34%% for the store case): DCF3D's per-IGBP cost on the real
// machines — hole cutting against real surfaces, list formation, stretched-
// cell Newton inversions and failed hierarchy searches — was substantially
// heavier than this reproduction's analytic-geometry equivalents, so each
// unit of connectivity work carries a calibrated flop weight.
const (
	flopsPerSearchStep = 150.0 // one Newton iteration / walk move
	flopsPerHoleTest   = 50.0  // one hole-map / cutter query
	flopsPerFringeMark = 16.0
	flopsPerInterp     = 60.0 // trilinear donor interpolation, 5 components
	bytesPerRequest    = 56
	bytesPerReply      = 64
	bytesPerValue      = 48
)

// maxForwardHops bounds request forwarding chains. Genuine cross-boundary
// forwards resolve in one or two hops and topological restarts consume at
// most chainRestartBudget, so a short cap stops walks for points that are
// not in the grid at all from crawling across every subdomain.
const maxForwardHops = 5

// Part mirrors balance.Part without importing it (grid, rank, box).
type Part struct {
	Grid int
	Rank int
	Box  grid.IBox
}

// Solver carries one rank's connectivity state across timesteps.
type Solver struct {
	Cfg   *overset.Config
	Parts []Part // indexed by rank
	Rank  int    // my rank

	// igbps are my owned fringe points from the latest solve.
	igbps []overset.IGBP
	// donors are parallel to igbps (Grid < 0 = orphan).
	donors []overset.Donor
	// donorRank is the rank that serves each donor.
	donorRank []int

	// restart: previous donors per packed IGBP key for nth-level restart.
	restart map[restartKey]restartHint

	// sendList: interpolation duties this rank owes others, rebuilt each
	// connectivity solve. Indexed by receiver rank; an empty slice means no
	// duties (dense per-rank buckets, reused across solves).
	sendList [][]sendEntry

	// ReceivedIGBPs is I(p): the number of non-local IGBP search requests
	// this rank serviced in the latest solve.
	ReceivedIGBPs int
	// Forwards counts requests forwarded across processor boundaries.
	Forwards int
	// Orphans counts local IGBPs with no donor.
	Orphans int
	// SearchSteps accumulates walk work performed by this rank.
	SearchSteps int
	// Hinted and Scratch count how many of this rank's own IGBPs used a
	// restart hint versus a from-scratch search in the latest solve.
	Hinted, Scratch int
	// HintMisses counts hinted requests that came back unresolved.
	HintMisses int

	// Fault-degradation counters, cumulative across solves and fringe
	// updates (zero on fault-free runs). LostSends counts search-request
	// batches lost beyond the retry budget, LostReplies reply batches
	// likewise (their points degrade to orphans), LostFringe fringe-value
	// batches whose receivers kept previous data.
	LostSends, LostReplies, LostFringe int

	// met caches metric handles when a registry is attached to the world
	// (nil otherwise; see metrics.go).
	met *solverMetrics

	// Reusable per-solve scratch. Everything below changes host allocation
	// behavior only, never modeled time (see DESIGN.md, "Wall-clock vs
	// virtual time"). The per-destination request/reply buckets are dense
	// rank-indexed slices: iterating them in index order IS the sorted-key
	// order the old map-based buckets had to sort into, so sends stay
	// deterministic by construction.
	pend        []pendingPt // dense, indexed by IGBP id
	outbox      [][]ptReq   // destination rank -> queued requests
	outboxNext  [][]ptReq   // double buffer for lost-send requeues
	fwdbox      [][]ptReq   // destination rank -> forwards
	replies     [][]ptRep   // origin rank -> computed replies
	lostFwds    [][]ptRep   // origin rank -> broken-chain failure replies
	anyLostFwds bool
	rankBounds  []geom.Box
	inbound     []par.Msg
	cands       []int     // candidate-rank scratch for advance
	candD       []float64 // distances parallel to cands
	gridIx      overset.GridRankIndex
	gridOf      []int  // scratch for rebuilding gridIx: grid per rank
	expect      []bool // fringe-update receive set, indexed by rank
	marks       []int  // fringe-mark scratch, reused per layer
}

// restartKey is an IGBP identity (grid, i, j, k) packed into one word: map
// lookups hash 8 bytes instead of a 4-word struct. 16 bits per field is
// far beyond any component grid dimension here.
type restartKey uint64

func packRestartKey(g, i, j, k int) restartKey {
	return restartKey(uint64(g)<<48 | uint64(i)<<32 | uint64(j)<<16 | uint64(k))
}

type restartHint struct {
	donor overset.Donor
	rank  int
}

type sendEntry struct {
	origin int // requesting rank
	id     int // IGBP index on the origin rank
	donor  overset.Donor
}

// message payload types
type ptReq struct {
	Origin int
	ID     int
	Pos    geom.Vec3
	Grid   int    // donor grid to search
	Start  [3]int // walk start hint
	Hops   int
	// Restarts counts stuck-walk restarts consumed across the chain.
	Restarts int
	// Scratch marks a from-scratch request whose start hint is generic;
	// the server picks a better start by sampling its own subdomain.
	Scratch bool
}

// chainRestartBudget bounds stuck-walk restarts per request chain.
const chainRestartBudget = 3

type reqMsg struct{ Pts []ptReq }

// Message envelopes (see par.Envelope): senders copy their batch into a
// recycled envelope; receivers copy the contents out and Put it back. The
// solver's own per-destination buckets never leave the rank, so their reuse
// needs no cross-rank lifetime reasoning.
var (
	reqEnv = par.NewEnvelope[reqMsg]()
	repEnv = par.NewEnvelope[repMsg]()
	valEnv = par.NewEnvelope[valMsg]()
)

// Arenas, NewArenas and UseArenas survive only because the benchmark's
// step-loop mirror (perfbench/steploop.go) calls them and must build
// unchanged. Envelope reuse is owned by the par.World now, so they do
// nothing.
//
// Deprecated: no-ops; remove with their last caller.
type Arenas struct{}

// Deprecated: see Arenas.
func NewArenas(int) *Arenas { return nil }

// Deprecated: see Arenas.
func (s *Solver) UseArenas(*Arenas) {}

type ptRep struct {
	ID    int
	OK    bool
	Donor overset.Donor
	Rank  int // serving rank (for restart routing and fringe updates)
}

type repMsg struct{ Results []ptRep }

type valMsg struct {
	IDs  []int
	Vals []float64 // 5 per id
}

// NewSolver builds a rank-local connectivity solver.
func NewSolver(cfg *overset.Config, parts []Part, rank int) *Solver {
	return &Solver{
		Cfg:     cfg,
		Parts:   parts,
		Rank:    rank,
		restart: make(map[restartKey]restartHint),
	}
}

// Repartition points the solver at a new partition of the same world and
// returns it to the state NewSolver leaves: no restart hints, no fringe
// points or interpolation duties, every counter zero — the cumulative
// LostSends, LostReplies and LostFringe included — and no cached metric
// handles, since this rank's grid label may change. The per-rank buckets,
// the pending table, the donor arrays and the message scratch keep their
// storage, so a dynamic repartition rebuilds connectivity without
// regrowing them.
func (s *Solver) Repartition(parts []Part) {
	s.Parts = parts
	clear(s.restart)
	s.igbps = s.igbps[:0]
	s.donors = s.donors[:0]
	s.donorRank = s.donorRank[:0]
	for i := range s.sendList {
		s.sendList[i] = s.sendList[i][:0]
	}
	s.ReceivedIGBPs, s.Forwards, s.Orphans, s.SearchSteps = 0, 0, 0, 0
	s.Hinted, s.Scratch, s.HintMisses = 0, 0, 0
	s.LostSends, s.LostReplies, s.LostFringe = 0, 0, 0
	s.met = nil
}

// ensureWorld sizes the per-rank scratch buckets and builds the per-grid
// rank index (the donor-grid candidate lookup accelerator: advance and
// rankOfCell scan only the ranks owning the donor grid instead of every
// part). Idempotent while the world size is stable.
func (s *Solver) ensureWorld() {
	n := len(s.Parts)
	if len(s.outbox) != n {
		s.outbox = make([][]ptReq, n)
		s.outboxNext = make([][]ptReq, n)
		s.fwdbox = make([][]ptReq, n)
		s.replies = make([][]ptRep, n)
		s.lostFwds = make([][]ptRep, n)
		s.sendList = make([][]sendEntry, n)
		s.expect = make([]bool, n)
	}
	s.gridOf = s.gridOf[:0]
	for _, p := range s.Parts { // Parts is rank-indexed: ascending ranks
		s.gridOf = append(s.gridOf, p.Grid)
	}
	s.gridIx = overset.BuildGridRankIndex(len(s.Cfg.Sys.Grids), s.gridOf, s.gridIx)
}

// dropSendEntry removes the interpolation duty owed to origin for the given
// IGBP id — called when the reply that would have told the origin about the
// donor was lost, so both sides forget the pairing consistently.
func (s *Solver) dropSendEntry(origin, id int) {
	entries := s.sendList[origin]
	for i := len(entries) - 1; i >= 0; i-- {
		if entries[i].id == id {
			entries = append(entries[:i], entries[i+1:]...)
			break
		}
	}
	s.sendList[origin] = entries
}

// myBox returns this rank's owned box and grid.
func (s *Solver) myBox() (int, grid.IBox) {
	p := s.Parts[s.Rank]
	return p.Grid, p.Box
}

// rankOfCell returns the rank owning the given cell (by its base point) of
// the given grid, or -1. With the per-grid rank index built it scans only
// that grid's ranks, in the same ascending order as the full-part scan.
func (s *Solver) rankOfCell(gi int, cell [3]int) int {
	if s.gridIx.Built() {
		for _, rk := range s.gridIx.Of(gi) {
			if s.Parts[rk].Box.Contains(cell[0], cell[1], cell[2]) {
				return rk
			}
		}
		return -1
	}
	for _, p := range s.Parts {
		if p.Grid == gi && p.Box.Contains(cell[0], cell[1], cell[2]) {
			return p.Rank
		}
	}
	return -1
}
