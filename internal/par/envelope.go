package par

import "sync"

// Envelope is a typed handle on a world-owned free list of pointer message
// envelopes. Payloads cross ranks by reference, so an envelope can only be
// recycled by the side that has finished reading it: the sender Gets one,
// fills it and hands it to Send; the receiver copies the contents out and
// Puts it back into its OWN free list. Pointer envelopes box into the `any`
// message slot without allocating, so a protocol whose envelope types own
// their internal buffers (slices reused via append(x[:0])) runs alloc-free
// at steady state.
//
// Declare one handle per envelope type as a package-level variable:
//
//	var faceEnv = par.NewEnvelope[faceMsg]()
//
// Every world created afterwards sizes one store for it: a cache-line-padded
// free list per rank, touched only by that rank's goroutine (lock-free Get
// and Put), plus a mutex-guarded overflow list. Envelopes migrate between
// ranks by design; when a flow is unbalanced (request/reply protocols, where
// requesters' envelopes pile up on servers) full free lists spill to the
// overflow list and empty ones refill from it, so steady-state reuse survives
// lopsided traffic at the cost of occasional, never per-message, lock
// operations.
//
// Envelopes that are never received — dropped by fault injection or stranded
// by a crash-recovery teardown — are simply collected by the GC. Reuse
// changes host allocation behavior only: message bytes, arrival times and
// virtual clocks are computed from the declared wire size, never from where
// an envelope came from.
type Envelope[T any] struct{ id int }

// envStores holds one constructor per registered envelope type, indexed by
// Envelope.id; NewWorld calls each to size the world's stores.
var (
	envMu     sync.Mutex
	envStores []func(n int) any
)

// NewEnvelope registers an envelope type. Call it from a package-level
// variable declaration: worlds created before the call have no store for it.
func NewEnvelope[T any]() Envelope[T] {
	envMu.Lock()
	defer envMu.Unlock()
	envStores = append(envStores, func(n int) any {
		return &envStore[T]{shards: make([]envShard[T], n)}
	})
	return Envelope[T]{id: len(envStores) - 1}
}

// newEnvStores sizes one store per registered envelope type for an n-rank
// world.
func newEnvStores(n int) []any {
	envMu.Lock()
	defer envMu.Unlock()
	s := make([]any, len(envStores))
	for i, mk := range envStores {
		s[i] = mk(n)
	}
	return s
}

// Get returns a recycled envelope for the calling rank, refilling from the
// world's overflow list (one lock op) before allocating a fresh one. Internal
// buffers keep their capacity; callers must reset lengths before filling.
// It must be called only from r's goroutine.
func (e Envelope[T]) Get(r *Rank) *T {
	return r.w.envs[e.id].(*envStore[T]).get(r.ID)
}

// Put returns an envelope for reuse by the calling rank — for a received
// envelope, the receiver, not the sender. The caller must not touch it
// afterwards. It must be called only from r's goroutine.
func (e Envelope[T]) Put(r *Rank, x *T) {
	if x != nil {
		r.w.envs[e.id].(*envStore[T]).put(r.ID, x)
	}
}

// envShardCap bounds each rank's private free list. Balanced envelope flows
// (halo exchange, pipelined sweeps on interior ranks) never come near it;
// unbalanced ones spill the excess to the shared overflow list.
const envShardCap = 64

// envShard is one rank's private free list, padded so adjacent shards in the
// contiguous shard array never share a cache line (a Put on rank r must not
// invalidate rank r+1's list head).
type envShard[T any] struct {
	free []*T
	_    [64 - 24%64]byte
}

// envStore is one world's free lists for one envelope type.
type envStore[T any] struct {
	shards []envShard[T]

	ovMu sync.Mutex
	ov   []*T
}

func (s *envStore[T]) get(rank int) *T {
	sh := &s.shards[rank]
	if n := len(sh.free); n > 0 {
		x := sh.free[n-1]
		sh.free[n-1] = nil
		sh.free = sh.free[:n-1]
		return x
	}
	if x := s.getOverflow(); x != nil {
		return x
	}
	return new(T)
}

// getOverflow pops one envelope from the shared overflow list. Kept out of
// get's inlinable fast path.
func (s *envStore[T]) getOverflow() *T {
	s.ovMu.Lock()
	defer s.ovMu.Unlock()
	n := len(s.ov)
	if n == 0 {
		return nil
	}
	x := s.ov[n-1]
	s.ov[n-1] = nil
	s.ov = s.ov[:n-1]
	return x
}

func (s *envStore[T]) put(rank int, x *T) {
	sh := &s.shards[rank]
	if len(sh.free) < envShardCap {
		sh.free = append(sh.free, x)
		return
	}
	s.ovMu.Lock()
	s.ov = append(s.ov, x)
	s.ovMu.Unlock()
}
