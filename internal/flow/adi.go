package flow

import (
	"overd/internal/par"
)

// The diagonalized approximate-factorization implicit scheme: the update
// ΔQ solves
//
//	(I + Δt·J·δξ·Âξ)(I + Δt·J·δη·Âη)(I + Δt·J·δζ·Âζ) ΔQ = RHS
//
// with each Jacobian replaced by T Λ T⁻¹, so a factor becomes a pointwise
// multiply by T⁻¹, five scalar tridiagonal line solves (first-order upwind
// implicit operator plus implicit smoothing), and a pointwise multiply by
// T. Lines crossing subdomain boundaries are solved with a pipelined Thomas
// algorithm: forward elimination flows down the rank chain, back
// substitution flows back, in line batches so successive batches overlap —
// implicitness is maintained across subdomains and convergence is
// independent of the partitioning (paper §2.1). Non-updatable points (holes,
// fringes, explicit boundaries) contribute identity rows, which decouples
// line segments exactly as Dirichlet conditions.

// implicit smoothing coefficient added to the scalar operators.
const implicitEps = 0.12

// pipeBatches is the number of line batches per boundary message used to
// overlap the pipelined sweeps.
const pipeBatches = 4

// SolveADI factors and applies the implicit operator in place: on entry
// b.RHS holds Δt·J·R; on return b.DQ holds ΔQ. Returns flops performed
// locally (communication time is charged through r directly).
func (b *Block) SolveADI(r *par.Rank, dt float64) float64 {
	b.ensureScratch()
	copy(b.DQ, b.RHS)
	flops := 0.0
	ndir := 3
	if b.TwoD {
		ndir = 2
	}
	for d := 0; d < ndir; d++ {
		flops += b.sweepDirection(r, d, dt)
	}
	return flops
}

// lineGeom describes the transverse point set of direction d without a
// closure (which would heap-allocate per sweep): line idx starts at
// base0 + (idx%nu)*strideU + (idx/nu)*strideV and holds count owned points
// stride apart. The enumeration order is identical to the old per-index
// (lj,lk) arithmetic.
type lineGeom struct {
	nLines, nu       int
	base0            int
	strideU, strideV int
	stride, count    int
}

// lineBase returns the first point of line idx.
func (lg *lineGeom) lineBase(idx int) int {
	return lg.base0 + (idx%lg.nu)*lg.strideU + (idx/lg.nu)*lg.strideV
}

func (b *Block) lineSet(d int) lineGeom {
	klo, khi := b.kBounds()
	nk := khi - klo + 1
	switch d {
	case 0:
		nj := b.MJ - 2*Halo
		return lineGeom{
			nLines: nj * nk, nu: nj,
			base0:   b.LIdx(Halo, Halo, klo),
			strideU: b.MI, strideV: b.MI * b.MJ,
			stride: 1, count: b.Own.NI(),
		}
	case 1:
		ni := b.MI - 2*Halo
		return lineGeom{
			nLines: ni * nk, nu: ni,
			base0:   b.LIdx(Halo, Halo, klo),
			strideU: 1, strideV: b.MI * b.MJ,
			stride: b.MI, count: b.Own.NJ(),
		}
	default:
		ni := b.MI - 2*Halo
		nj := b.MJ - 2*Halo
		return lineGeom{
			nLines: ni * nj, nu: ni,
			base0:   b.LIdx(Halo, Halo, Halo),
			strideU: 1, strideV: b.MI,
			stride: b.MI * b.MJ, count: b.Own.NK(),
		}
	}
}

// pipeMsg carries the Thomas recurrence state across a rank boundary for a
// batch of lines: forward messages hold (c', d') per line per component;
// backward messages hold the solved x per line per component. The receiver
// copies Vals out and Puts the envelope back into its own free list (see
// par.Envelope), so steady-state sweeps allocate nothing per batch.
type pipeMsg struct {
	Dir   int
	Batch int
	Vals  []float64
}

var pipeEnv = par.NewEnvelope[pipeMsg]()

// sweepDirection applies one ADI factor along direction d. The pointwise
// passes walk contiguous i-runs and build only the matrix each pass needs
// (T⁻¹ before the line solves, T after); both charge the full eigensystem
// flop constant — the accounting is per point, not per host instruction.
func (b *Block) sweepDirection(r *par.Rank, d int, dt float64) float64 {
	s := b.scr

	// Pointwise: W = T⁻¹ · DQ, and stash eigenvalues per point.
	lam := s.fw // reuse flux workspace: 5 eigenvalues per point
	var e Eigen
	met, dqs, jac := b.Met, b.DQ, b.Jac
	xt, yt, zt := b.XT, b.YT, b.ZT
	md := 3 * d
	klo, khi := b.kBounds()
	niOwn := b.Own.NI()
	for lk := klo; lk <= khi; lk++ {
		for lj := Halo; lj < b.MJ-Halo; lj++ {
			p0 := b.LIdx(Halo, lj, lk)
			for p := p0; p < p0+niOwn; p++ {
				mp := met[9*p+md : 9*p+md+3 : 9*p+md+3]
				kx, ky, kz := mp[0], mp[1], mp[2]
				kt := -(kx*xt[p] + ky*yt[p] + kz*zt[p])
				e.SetTi(b.QAt(p), kx, ky, kz, kt)
				dq := dqs[5*p : 5*p+5 : 5*p+5]
				w := e.MulTi([5]float64{dq[0], dq[1], dq[2], dq[3], dq[4]})
				dq[0], dq[1], dq[2], dq[3], dq[4] = w[0], w[1], w[2], w[3], w[4]
				jdt := jac[p] * dt
				lp := lam[5*p : 5*p+5 : 5*p+5]
				lp[0] = e.Lam[0] * jdt
				lp[1] = e.Lam[1] * jdt
				lp[2] = e.Lam[2] * jdt
				lp[3] = e.Lam[3] * jdt
				lp[4] = e.Lam[4] * jdt
			}
		}
	}
	flops := float64(b.NOwned()) * (flopsEigenBuild + flopsEigenApply)

	// Scalar tridiagonal solves along d, pipelined across ranks.
	flops += b.lineSolves(r, d, dt, lam)

	// Pointwise: DQ = T · W.
	for lk := klo; lk <= khi; lk++ {
		for lj := Halo; lj < b.MJ-Halo; lj++ {
			p0 := b.LIdx(Halo, lj, lk)
			for p := p0; p < p0+niOwn; p++ {
				mp := met[9*p+md : 9*p+md+3 : 9*p+md+3]
				kx, ky, kz := mp[0], mp[1], mp[2]
				kt := -(kx*xt[p] + ky*yt[p] + kz*zt[p])
				e.SetT(b.QAt(p), kx, ky, kz, kt)
				dq := dqs[5*p : 5*p+5 : 5*p+5]
				w := e.MulT([5]float64{dq[0], dq[1], dq[2], dq[3], dq[4]})
				dq[0], dq[1], dq[2], dq[3], dq[4] = w[0], w[1], w[2], w[3], w[4]
			}
		}
	}
	flops += float64(b.NOwned()) * (flopsEigenBuild + flopsEigenApply)
	return flops
}

// lineSolves performs the five scalar tridiagonal solves along direction d.
// lam holds the Δt·J-scaled eigenvalues (5 per point). Pipelining: the
// transverse lines are split into batches; the forward elimination of a
// batch waits for the upstream rank's boundary state for that batch only,
// so downstream ranks start while upstream ones continue.
func (b *Block) lineSolves(r *par.Rank, d int, dt float64, lam []float64) float64 {
	s := b.scr
	lg := b.lineSet(d)
	nLines, stride, count := lg.nLines, lg.stride, lg.count
	prev := b.Nbr[d][0]
	next := b.Nbr[d][1]
	// The periodic seam is treated explicitly (no implicit wrap coupling).
	prevRank, nextRank := -1, -1
	if prev.Rank >= 0 && !prev.Wrap {
		prevRank = prev.Rank
	}
	if next.Rank >= 0 && !next.Wrap {
		nextRank = next.Rank
	}

	// Work through batches.
	batches := pipeBatches
	if batches > nLines {
		batches = nLines
	}
	if batches < 1 {
		batches = 1
	}
	flops := 0.0

	// Storage for cross-boundary state per line: entering (c', d') and the
	// back-substituted x from downstream. Reused from the block's scratch
	// across directions and steps; every element is written before it is
	// read within a sweep, so stale contents are harmless.
	if cap(s.cIn) < nLines*5 {
		s.cIn = make([]float64, nLines*5)
		s.dIn = make([]float64, nLines*5)
		s.cOut = make([]float64, nLines*5)
		s.dOut = make([]float64, nLines*5)
		s.xIn = make([]float64, nLines*5)
	}
	cIn := s.cIn[:nLines*5]
	dIn := s.dIn[:nLines*5]
	cOut := s.cOut[:nLines*5]
	dOut := s.dOut[:nLines*5]
	xIn := s.xIn[:nLines*5]

	// cpAll stores the full c' field (needed again for back substitution).
	cpAll := s.cpAll

	// Per-line implicit-smoothing coefficients, computed once per point
	// instead of once per point per component.
	maxCount := b.Own.NI()
	if c := b.Own.NJ(); c > maxCount {
		maxCount = c
	}
	if c := b.Own.NK(); c > maxCount {
		maxCount = c
	}
	if cap(s.epsLn) < maxCount {
		s.epsLn = make([]float64, maxCount)
	}
	epsLn := s.epsLn[:maxCount]
	upd, jac, sigd, dq := s.upd, b.Jac, s.sig[d], b.DQ

	batchRange := func(bi int) (lo, hi int) {
		lo = bi * nLines / batches
		hi = (bi+1)*nLines/batches - 1
		return
	}

	// Forward elimination, batch by batch.
	for bi := 0; bi < batches; bi++ {
		lo, hi := batchRange(bi)
		if prevRank >= 0 {
			m := r.Recv(prevRank, par.TagPipeline)
			pm := m.Data.(*pipeMsg)
			copy(cIn[lo*5:(hi+1)*5], pm.Vals[:5*(hi-lo+1)])
			copy(dIn[lo*5:(hi+1)*5], pm.Vals[5*(hi-lo+1):])
			pipeEnv.Put(r, pm)
		}
		for ln := lo; ln <= hi; ln++ {
			base := lg.lineBase(ln)
			for m := 0; m < count; m++ {
				p := base + m*stride
				if upd[p] {
					epsLn[m] = implicitEps * dt * jac[p] * sigd[p]
				}
			}
			for c := 0; c < 5; c++ {
				cPrev, dPrev := 0.0, 0.0
				if prevRank >= 0 {
					cPrev, dPrev = cIn[ln*5+c], dIn[ln*5+c]
				}
				for m := 0; m < count; m++ {
					p := base + m*stride
					var am, bm, cm, rm float64
					if !upd[p] {
						am, bm, cm, rm = 0, 1, 0, 0
					} else {
						l := lam[5*p+c]
						lp := 0.5 * (l + abs(l))
						lm := 0.5 * (l - abs(l))
						eps := epsLn[m]
						am = -lp - eps
						bm = 1 + (lp - lm) + 2*eps
						cm = lm - eps
						rm = dq[5*p+c]
					}
					den := bm - am*cPrev
					if den == 0 {
						den = 1e-30
					}
					cPrev = cm / den
					dPrev = (rm - am*dPrev) / den
					cpAll[5*p+c] = cPrev
					dq[5*p+c] = dPrev // store d' in place
				}
				cOut[ln*5+c], dOut[ln*5+c] = cPrev, dPrev
			}
			flops += float64(count) * 5 * flopsTriPerComp
		}
		if nextRank >= 0 {
			nv := hi - lo + 1
			pm := pipeEnv.Get(r)
			pm.Dir, pm.Batch = d, bi
			pm.Vals = append(pm.Vals[:0], cOut[lo*5:(hi+1)*5]...)
			pm.Vals = append(pm.Vals, dOut[lo*5:(hi+1)*5]...)
			r.Send(nextRank, par.TagPipeline, pm, 8*10*nv)
		}
	}

	// Back substitution, batch by batch (reverse chain direction).
	for bi := 0; bi < batches; bi++ {
		lo, hi := batchRange(bi)
		if nextRank >= 0 {
			m := r.Recv(nextRank, par.TagPipeline)
			pm := m.Data.(*pipeMsg)
			copy(xIn[lo*5:(hi+1)*5], pm.Vals)
			pipeEnv.Put(r, pm)
		}
		for ln := lo; ln <= hi; ln++ {
			base := lg.lineBase(ln)
			for c := 0; c < 5; c++ {
				xNext := 0.0
				if nextRank >= 0 {
					xNext = xIn[ln*5+c]
				}
				for m := count - 1; m >= 0; m-- {
					p := base + m*stride
					x := dq[5*p+c] - cpAll[5*p+c]*xNext
					dq[5*p+c] = x
					xNext = x
				}
				xIn[ln*5+c] = xNext // my first point's x, for upstream
			}
			flops += float64(count) * 5 * 2
		}
		if prevRank >= 0 {
			nv := hi - lo + 1
			pm := pipeEnv.Get(r)
			pm.Dir, pm.Batch = d, bi
			pm.Vals = append(pm.Vals[:0], xIn[lo*5:(hi+1)*5]...)
			r.Send(prevRank, par.TagPipeline, pm, 8*5*nv)
		}
	}
	return flops
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// ApplyUpdate adds ΔQ to the conserved state at updatable points and
// enforces w = 0 on planar blocks. Returns flops.
func (b *Block) ApplyUpdate() float64 {
	b.ensureScratch()
	s := b.scr
	upd, qs, dqs := s.upd, b.Q, b.DQ
	twoD := b.TwoD
	count := 0
	klo, khi := b.kBounds()
	niOwn := b.Own.NI()
	for lk := klo; lk <= khi; lk++ {
		for lj := Halo; lj < b.MJ-Halo; lj++ {
			p0 := b.LIdx(Halo, lj, lk)
			for p := p0; p < p0+niOwn; p++ {
				if !upd[p] {
					continue
				}
				count++
				qp := qs[5*p : 5*p+5 : 5*p+5]
				dq := dqs[5*p : 5*p+5 : 5*p+5]
				qp[0] += dq[0]
				qp[1] += dq[1]
				qp[2] += dq[2]
				qp[3] += dq[3]
				qp[4] += dq[4]
				if twoD {
					qp[3] = 0
				}
				// Keep the state physical: floor density and pressure.
				if qp[0] < 1e-6 {
					qp[0] = 1e-6
				}
				rho, u, v, w, pr := Primitive(b.QAt(p))
				if pr <= 1e-8 {
					pr = 1e-8
					qp[4] = pr/(Gamma-1) + 0.5*rho*(u*u+v*v+w*w)
				}
			}
		}
	}
	return float64(count) * 8
}
