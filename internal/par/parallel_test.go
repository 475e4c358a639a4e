package par

import (
	"errors"
	"runtime"
	"testing"
)

// These tests stress the cross-rank shared structures — mailboxes, the
// envelope stores, the run-slot gate — under real goroutine concurrency.
// They are most valuable under `go test -race` at GOMAXPROCS > 1, which is
// how CI runs them; at GOMAXPROCS=1 they still exercise every interleaving
// point the Go scheduler can produce on one core.

// pinOneProc pins GOMAXPROCS to 1 for the duration of the test.
// testing.AllocsPerRun counts every allocation in the process during its
// runs, so at GOMAXPROCS>1 a concurrently scheduled goroutine (GC worker,
// a peer rank) can charge allocations to the measured hot path and flake
// the zero-alloc assertion — the measurement needs serial execution even
// though the measured code is parallel-safe.
func pinOneProc(t *testing.T) {
	t.Helper()
	old := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestMailboxManyConcurrentSenders funnels a fan-in storm into one mailbox:
// every other rank fires a burst of sends at rank 0, which drains them with
// wildcard receives. The sum check catches lost or duplicated deliveries;
// running the identical world twice pins the (arrival, flow id) wildcard
// tie-break — rank 0's clock must not depend on the host interleaving of
// the senders.
func TestMailboxManyConcurrentSenders(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	const nSenders = 16
	const perSender = 200
	run := func() (sum int, clock float64) {
		w := testWorld(nSenders + 1)
		w.Run(func(r *Rank) {
			if r.ID == 0 {
				for i := 0; i < nSenders*perSender; i++ {
					m := r.Recv(AnyRank, TagUser)
					sum += m.Data.(int)
				}
				clock = r.Clock
				return
			}
			for i := 0; i < perSender; i++ {
				r.Send(0, TagUser, r.ID*perSender+i, 8)
			}
		})
		return sum, clock
	}
	want := 0
	for id := 1; id <= nSenders; id++ {
		for i := 0; i < perSender; i++ {
			want += id*perSender + i
		}
	}
	sum1, clock1 := run()
	if sum1 != want {
		t.Errorf("first run delivered sum %d, want %d (lost or duplicated messages)", sum1, want)
	}
	sum2, clock2 := run()
	if sum2 != want {
		t.Errorf("second run delivered sum %d, want %d", sum2, want)
	}
	if clock1 != clock2 {
		t.Errorf("receiver clock depends on host schedule: %v vs %v", clock1, clock2)
	}
}

// intEnv is the test envelope type; registered at package init like the
// solvers' envelopes, so every test world carries a store for it.
var intEnv = NewEnvelope[int]()

// TestEnvelopeConcurrentMigration drives the envelope store's migration path
// under concurrency: every rank Gets envelopes from its own free list and
// sends them to its neighbor, which Puts them into its own free list — the
// requester/server imbalance pattern from the DCF solver, where envelopes
// allocated on one rank retire on another. The race detector owns the
// correctness claim; the test just keeps the pointers moving.
func TestEnvelopeConcurrentMigration(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	const nRanks = 8
	const rounds = 500
	w := testWorld(nRanks)
	ok := make([]bool, nRanks)
	w.Run(func(r *Rank) {
		ok[r.ID] = true
		for j := 0; j < rounds; j++ {
			x := intEnv.Get(r)
			if x == nil {
				ok[r.ID] = false
				break
			}
			*x = r.ID
			r.Send((r.ID+1)%nRanks, TagUser, x, 8)
			y := r.Recv((r.ID+nRanks-1)%nRanks, TagUser).Data.(*int)
			if *y != (r.ID+nRanks-1)%nRanks {
				ok[r.ID] = false
			}
			intEnv.Put(r, y)
		}
	})
	for id, good := range ok {
		if !good {
			t.Fatalf("rank %d: envelope store returned nil or a clobbered envelope under migration", id)
		}
	}
}

// TestEnvelopeOverflowRecycles pins the overflow list's purpose: envelopes
// retired past one rank's free-list cap must come back out of Get on a
// different rank instead of being dropped for the allocator to replace.
func TestEnvelopeOverflowRecycles(t *testing.T) {
	const n = envShardCap + 36
	put := make(map[*int]bool, n)
	testWorld(2).Run(func(r *Rank) {
		if r.ID == 0 {
			live := make([]*int, n)
			for i := range live {
				live[i] = intEnv.Get(r)
				put[live[i]] = true
			}
			for _, x := range live {
				intEnv.Put(r, x)
			}
		}
		r.Barrier()
		if r.ID == 0 {
			return
		}
		// Rank 0's free list holds envShardCap of them; the rest spilled to
		// the shared overflow list, which rank 1's empty list must drain
		// first.
		for i := 0; i < n-envShardCap; i++ {
			if x := intEnv.Get(r); !put[x] {
				t.Errorf("Get on rank 1 #%d returned a fresh allocation while %d envelopes sat in overflow",
					i, n-envShardCap-i)
				return
			}
		}
	})
}

// TestEnvelopePingPongZeroAlloc pins the steady-state reuse claim: in a
// 2-rank world, an envelope round trip (Get, Send, Recv, Put on each side)
// allocates nothing once both free lists are warm.
func TestEnvelopePingPongZeroAlloc(t *testing.T) {
	pinOneProc(t)
	testWorld(2).Run(func(r *Rank) {
		if r.ID == 0 {
			if n := testing.AllocsPerRun(100, func() {
				x := intEnv.Get(r)
				*x = 1
				r.Send(1, TagUser, x, 8)
				intEnv.Put(r, r.Recv(1, TagUser).Data.(*int))
			}); n != 0 {
				t.Errorf("envelope ping-pong allocates %.1f objects/op", n)
			}
			r.Send(1, TagUser, nil, 0) // stop marker
			return
		}
		for {
			m := r.Recv(0, TagUser)
			if m.Data == nil {
				return
			}
			intEnv.Put(r, m.Data.(*int))
			x := intEnv.Get(r)
			*x = 2
			r.Send(0, TagUser, x, 8)
		}
	})
}

// TestSetParallelismClockInvariance is the gate's core contract: any worker
// bound produces bit-identical virtual clocks. The workload mixes the three
// blocking primitives the gate instruments — point-to-point receive,
// wildcard receive, barrier — across enough rounds that a slot leak or a
// reordered wakeup would shift an arrival somewhere.
func TestSetParallelismClockInvariance(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	const n = 8
	run := func(workers int) []float64 {
		w := testWorld(n)
		w.SetParallelism(workers)
		clocks := make([]float64, n)
		w.Run(func(r *Rank) {
			for round := 0; round < 5; round++ {
				r.Compute(float64(1000 * (r.ID + 1) * (round + 1)))
				r.Send((r.ID+1)%n, TagUser, r.ID, 64)
				r.Recv((r.ID+n-1)%n, TagUser)
				r.Send((r.ID+2)%n, TagUser+1, r.ID, 32)
				r.Recv(AnyRank, TagUser+1)
				r.Barrier()
			}
			clocks[r.ID] = r.Clock
		})
		return clocks
	}
	base := run(0) // unbounded
	for _, workers := range []int{1, 2, 3, n} {
		got := run(workers)
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: rank %d clock %v != unbounded %v",
					workers, i, got[i], base[i])
			}
		}
	}
}

// TestSetParallelismPoisonNoDeadlock kills a rank while the gate is at its
// tightest (one slot for four ranks): the survivors are parked either
// waiting for the slot or blocked in Recv holding it, and the poison path
// must unwind all of them instead of deadlocking on the unreturned slot.
func TestSetParallelismPoisonNoDeadlock(t *testing.T) {
	w := testWorld(4)
	w.SetParallelism(1)
	_, err := w.RunErr(func(r *Rank) {
		if r.ID == 2 {
			panic("modeled failure")
		}
		r.Recv(3, TagUser) // never sent: parks every survivor
	})
	var rf *RankFailure
	if !errors.As(err, &rf) {
		t.Fatalf("want *RankFailure, got %v", err)
	}
	if rf.Rank != 2 {
		t.Errorf("root cause attributed to rank %d, want 2", rf.Rank)
	}
}
