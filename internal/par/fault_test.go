package par

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"overd/internal/metrics"
	"overd/internal/trace"
)

// scriptInjector drops the first dropFirst physical attempts it sees.
// Single-sender tests only (Drop is called from sender goroutines).
type scriptInjector struct {
	dropFirst int
	calls     int
}

func (s *scriptInjector) Drop(from, to, tag int, seq uint64) bool {
	s.calls++
	return s.calls <= s.dropFirst
}

// dropAll drops every message between distinct ranks.
type dropAll struct{}

func (dropAll) Drop(from, to, tag int, seq uint64) bool { return true }

func TestSendReliableRetriesThenDelivers(t *testing.T) {
	w := testWorld(2)
	w.SetFaults(&scriptInjector{dropFirst: 2})
	var gotData string
	var retries, dropped int
	var faultWait float64
	w.Run(func(r *Rank) {
		if r.ID == 0 {
			if !r.SendReliable(1, TagUser, "payload", 64) {
				t.Error("SendReliable reported loss despite a successful retry")
			}
			retries, dropped = r.Retries, r.Dropped
			faultWait = r.TotalFaultWaitTime()
		} else {
			gotData = r.Recv(0, TagUser).Data.(string)
		}
	})
	if gotData != "payload" {
		t.Errorf("received %q", gotData)
	}
	if retries != 2 || dropped != 2 {
		t.Errorf("retries %d dropped %d, want 2 and 2", retries, dropped)
	}
	if faultWait <= 0 {
		t.Errorf("retransmission charged no fault wait")
	}
}

func TestSendReliableExhaustedBudgetReportsLossToSender(t *testing.T) {
	w := testWorld(2)
	w.SetFaults(dropAll{})
	var tombFrom int
	var recvOK bool
	var senderWait float64
	var receiverWait float64
	w.Run(func(r *Rank) {
		if r.ID == 0 {
			if r.SendReliable(1, TagUser, "payload", 64) {
				t.Error("SendReliable reported success with every attempt dropped")
			}
			senderWait = r.TotalFaultWaitTime()
		} else {
			var m Msg
			m, recvOK = r.RecvTimeout(0, TagUser, 1e-6)
			tombFrom = m.From
			receiverWait = r.TotalFaultWaitTime()
		}
	})
	if recvOK {
		t.Error("RecvTimeout matched a tombstone as a real message")
	}
	if tombFrom != 0 {
		t.Errorf("tombstone Msg should be zero-valued, got From=%d", tombFrom)
	}
	if senderWait <= 0 || receiverWait <= 0 {
		t.Errorf("loss charged no fault wait: sender %v receiver %v", senderWait, receiverWait)
	}
}

// Awaiting a lost message with plain Recv is a protocol bug; the runtime
// reports it instead of hanging.
func TestRecvOnTombstonePanicsWithDiagnostic(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("expected panic")
		}
		msg := p.(string)
		if !strings.Contains(msg, "dropped by fault injection") ||
			!strings.Contains(msg, "RecvTimeout") {
			t.Errorf("diagnostic %q should explain the loss and the remedy", msg)
		}
	}()
	w := testWorld(2)
	w.SetFaults(dropAll{})
	w.Run(func(r *Rank) {
		if r.ID == 0 {
			r.SendReliable(1, TagUser, "payload", 64)
		} else {
			r.Recv(0, TagUser)
		}
	})
}

// Tombstones do not survive a barrier: lossy exchanges complete between
// barriers, so leftovers would only leak memory in polling protocols.
func TestTombstonesClearedAtBarrier(t *testing.T) {
	w := testWorld(2)
	w.SetFaults(dropAll{})
	w.Run(func(r *Rank) {
		if r.ID == 0 {
			r.SendReliable(1, TagUser, "payload", 64)
		}
		r.Barrier()
		if n := len(r.tombs); n != 0 {
			t.Errorf("rank %d holds %d tombstones after a barrier", r.ID, n)
		}
		if _, ok := r.TryRecv(AnyRank, TagUser); ok {
			t.Errorf("rank %d matched a cleared tombstone", r.ID)
		}
	})
}

// Self-sends bypass the wire and are never dropped, even by a drop-all plan.
func TestSelfSendNeverDropped(t *testing.T) {
	w := testWorld(2)
	w.SetFaults(dropAll{})
	w.Run(func(r *Rank) {
		if r.ID == 0 {
			if !r.SendReliable(0, TagUser, "self", 8) {
				t.Error("self SendReliable reported loss")
			}
			if m := r.Recv(0, TagUser); m.Data.(string) != "self" {
				t.Errorf("self-recv got %v", m.Data)
			}
		}
		r.Barrier()
	})
}

// A rank that panics with a Crash value surfaces as a typed RankFailure
// whose Crashed() exposes the scheduled step, and unblocks every peer.
func TestRunErrTypedCrash(t *testing.T) {
	w := testWorld(3)
	w.SetFaults(&scriptInjector{}) // fault layer on, nothing dropped
	_, err := w.RunErr(func(r *Rank) {
		if r.ID == 2 {
			r.Compute(1e6)
			panic(Crash{Step: 7, Clock: r.Clock})
		}
		r.Barrier() // would deadlock without poisoning
	})
	if err == nil {
		t.Fatal("expected a RankFailure")
	}
	rf, ok := err.(*RankFailure)
	if !ok {
		t.Fatalf("error is %T, want *RankFailure", err)
	}
	if rf.Rank != 2 {
		t.Errorf("failed rank %d, want 2", rf.Rank)
	}
	crash, ok := rf.Crashed()
	if !ok || crash.Step != 7 || crash.Clock <= 0 {
		t.Errorf("Crashed() = %+v, %v", crash, ok)
	}
}

// Satellite: a rank panicking mid-AllGather must unblock the peers stuck in
// the collective and report the root cause, not a peer's induced panic.
func TestPanicMidAllGatherReportsRootCause(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("expected panic to propagate")
		}
		msg := p.(string)
		if !strings.Contains(msg, "gather-boom") || !strings.Contains(msg, "rank 1") {
			t.Errorf("panic %q should name rank 1 and the cause", msg)
		}
	}()
	w := testWorld(4)
	w.Run(func(r *Rank) {
		if r.ID == 1 {
			panic("gather-boom")
		}
		r.AllGather(r.ID, 8) // peers block in the collective
	})
}

// Satellite: same for a peer blocked in a point-to-point Recv; the reported
// cause is the panicking rank's, and the blocked rank's own induced
// "poisoned" panic is filtered out of root-cause selection.
func TestPanicMidRecvReportsRootCause(t *testing.T) {
	w := testWorld(3)
	_, err := w.RunErr(func(r *Rank) {
		if r.ID == 2 {
			panic("recv-boom")
		}
		if r.ID == 0 {
			r.Recv(2, TagHalo) // blocks until poisoned
		}
		if r.ID == 1 {
			r.Barrier()
		}
	})
	if err == nil {
		t.Fatal("expected a RankFailure")
	}
	rf := err.(*RankFailure)
	if rf.Rank != 2 {
		t.Errorf("root cause attributed to rank %d, want 2", rf.Rank)
	}
	if !strings.Contains(err.Error(), "recv-boom") {
		t.Errorf("error %q should carry the original cause", err.Error())
	}
}

// Satellite: the closed-inbox diagnostic names the receiving rank, the tag
// and the awaited sender. Reachable as the reported cause only when every
// panic is induced, so induce one deliberately.
func TestClosedInboxDiagnosticNamesRankTagSender(t *testing.T) {
	w := testWorld(2)
	_, err := w.RunErr(func(r *Rank) {
		if r.ID == 1 {
			// The word "poisoned" marks this as induced, so root-cause
			// selection falls through to rank 0's diagnostic.
			panic("poisoned on purpose")
		}
		r.Recv(1, TagHalo)
	})
	if err == nil {
		t.Fatal("expected a RankFailure")
	}
	msg := err.Error()
	if !strings.Contains(msg, "rank 0") || !strings.Contains(msg, "inbox closed") ||
		!strings.Contains(msg, "halo") || !strings.Contains(msg, "rank 1") {
		t.Errorf("diagnostic %q should name receiver, tag and sender", msg)
	}
}

// Satellite: same-tag messages from distinct senders are matchable in any
// order — wildcard or out-of-arrival-order by sender — without losing
// pending entries.
func TestTryRecvAnyOrderAcrossSenders(t *testing.T) {
	w := testWorld(3)
	w.Run(func(r *Rank) {
		if r.ID != 0 {
			r.Send(0, TagUser, r.ID, 8)
			r.Barrier()
			return
		}
		r.Barrier() // both messages are physically delivered now

		// Out-of-arrival-order by explicit sender: ask for rank 2 first.
		m2, ok := r.TryRecv(2, TagUser)
		if !ok || m2.From != 2 {
			t.Fatalf("TryRecv(2) = %+v, %v", m2, ok)
		}
		m1, ok := r.TryRecv(1, TagUser)
		if !ok || m1.From != 1 {
			t.Fatalf("TryRecv(1) after TryRecv(2) lost the pending entry: %+v, %v", m1, ok)
		}
		if _, ok := r.TryRecv(AnyRank, TagUser); ok {
			t.Error("phantom pending entry after both matches")
		}
	})

	// Wildcard matching drains both deterministically.
	w2 := testWorld(3)
	w2.Run(func(r *Rank) {
		if r.ID != 0 {
			r.Send(0, TagUser, r.ID, 8)
			r.Barrier()
			return
		}
		r.Barrier()
		seen := map[int]bool{}
		for i := 0; i < 2; i++ {
			m, ok := r.TryRecv(AnyRank, TagUser)
			if !ok {
				t.Fatalf("wildcard match %d missing", i)
			}
			if seen[m.From] {
				t.Fatalf("sender %d matched twice", m.From)
			}
			seen[m.From] = true
		}
	})
}

// The reliable path with no injector is the plain send: zero allocations on
// the unfaulted hot path.
func TestSendReliableUnfaultedNoAllocs(t *testing.T) {
	pinOneProc(t)
	w := testWorld(2)
	w.Run(func(r *Rank) {
		if r.ID == 0 {
			r.SendReliable(1, TagUser, nil, 8)
			if n := testing.AllocsPerRun(100, func() {
				r.SendReliable(1, TagUser, nil, 8)
			}); n != 0 {
				t.Errorf("unfaulted SendReliable allocates %.1f objects/op", n)
			}
			r.Send(1, TagUser+1, nil, 0) // stop marker
		} else {
			for {
				if _, ok := r.TryRecv(0, TagUser+1); ok {
					break
				}
				r.TryRecv(0, TagUser)
			}
			for {
				if _, ok := r.TryRecv(0, TagUser); !ok {
					break
				}
			}
		}
	})
}

// With no injector attached the reliable transport is the plain one: an
// exchange driven by SendReliable+RecvTimeout and the same exchange driven
// by Send+Recv leave identical clocks, trace events (flow ids included) and
// windowed metrics. This is what lets protocols call the loss-tolerant pair
// unconditionally instead of branching on whether faults are attached.
func TestSendReliableUnfaultedMatchesSend(t *testing.T) {
	const n = 4
	run := func(reliable bool) ([]float64, *trace.Recorder, *metrics.Registry) {
		w := testWorld(n)
		rec, reg := trace.NewRecorder(), metrics.New()
		w.SetTrace(rec)
		w.SetMetrics(reg)
		clocks := make([]float64, n)
		w.Run(func(r *Rank) {
			reg.MarkWindowStart(r.ID)
			r.SetPhase(PhaseFlow)
			for step := 0; step < 3; step++ {
				r.Compute(float64(1e5 * (r.ID + 1)))
				// Ring neighbours plus a free self-send.
				for k, to := range []int{(r.ID + 1) % n, (r.ID + n - 1) % n, r.ID} {
					tag, size := TagHalo+Tag(k), 64*(k+1)*(r.ID+1)
					if reliable {
						if !r.SendReliable(to, tag, step, size) {
							t.Errorf("rank %d: unfaulted SendReliable reported a loss", r.ID)
						}
					} else {
						r.Send(to, tag, step, size)
					}
				}
				for k, from := range []int{(r.ID + n - 1) % n, (r.ID + 1) % n, r.ID} {
					var m Msg
					if reliable {
						var ok bool
						if m, ok = r.RecvTimeout(from, TagHalo+Tag(k), 2*r.Model().LatencySec); !ok {
							t.Errorf("rank %d: unfaulted RecvTimeout timed out", r.ID)
						}
					} else {
						m = r.Recv(from, TagHalo+Tag(k))
					}
					if m.Data != step {
						t.Errorf("rank %d step %d: got payload %v", r.ID, step, m.Data)
					}
				}
			}
			r.Barrier()
			reg.MarkWindowEnd(r.ID)
			clocks[r.ID] = r.Clock
		})
		return clocks, rec, reg
	}
	plainClocks, plainRec, plainReg := run(false)
	relClocks, relRec, relReg := run(true)
	if !reflect.DeepEqual(plainClocks, relClocks) {
		t.Errorf("clocks differ: Send+Recv %v, SendReliable+RecvTimeout %v", plainClocks, relClocks)
	}
	for rank := 0; rank < n; rank++ {
		if !reflect.DeepEqual(plainRec.Events(rank), relRec.Events(rank)) {
			t.Errorf("rank %d: trace events differ", rank)
		}
		for _, name := range []string{"overd_par_msgs_sent_total", "overd_par_bytes_sent_total"} {
			p, q := plainReg.SumSeries(name, rank), relReg.SumSeries(name, rank)
			if p == 0 || p != q {
				t.Errorf("rank %d %s: Send+Recv %v, SendReliable+RecvTimeout %v", rank, name, p, q)
			}
		}
	}
	var plainProm, relProm bytes.Buffer
	if err := plainReg.WritePrometheus(&plainProm); err != nil {
		t.Fatal(err)
	}
	if err := relReg.WritePrometheus(&relProm); err != nil {
		t.Fatal(err)
	}
	if plainProm.String() != relProm.String() {
		t.Error("metrics exposition differs between Send+Recv and SendReliable+RecvTimeout")
	}
}
