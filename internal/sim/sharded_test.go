package sim

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// firing is one recorded event execution: which shard, when, which tag.
type firing struct {
	shard int
	at    time.Duration
	tag   uint64
}

// buildShardedProgram wires a deterministic workload onto a sharded
// engine: every shard runs a periodic local chain, and each chain tick
// sends a cross-shard event to the next shard keyed by a logical id. The
// recorded firings are the program's observable behavior.
func buildShardedProgram(t *testing.T, shards, workers int) (*ShardedEngine, *[][]firing) {
	t.Helper()
	se, err := NewShardedEngine(ShardedConfig{Shards: shards, Epoch: 100 * time.Millisecond, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	log := make([][]firing, shards)
	logs := &log
	// One mail handler per destination shard, bound once; the key rides
	// as the payload.
	recv := make([]Handler, shards)
	for dst := range recv {
		recv[dst] = func(at time.Duration, key uint64) {
			log[dst] = append(log[dst], firing{shard: dst, at: at, tag: key})
		}
	}
	for s := 0; s < shards; s++ {
		s := s
		ticks := 0
		var chain func(now time.Duration)
		chain = func(now time.Duration) {
			log[s] = append(log[s], firing{shard: s, at: now, tag: uint64(ticks)})
			ticks++
			if ticks >= 20 {
				return
			}
			se.Shard(s).After(37*time.Millisecond, chain)
			// Cross-shard hop keyed by a logical id (shard-stable here
			// because the program itself is defined per shard).
			dst := (s + 1) % shards
			key := uint64(s)<<32 | uint64(ticks)
			se.Send(s, dst, now+10*time.Millisecond, key, recv[dst], key)
		}
		se.Shard(s).At(time.Duration(s+1)*7*time.Millisecond, chain)
	}
	return se, logs
}

// TestShardedParallelMatchesSequential pins the core determinism claim:
// the same program run with Workers=1 (plain loop, no goroutines) and
// with parallel workers fires identical events at identical virtual times
// on every shard.
func TestShardedParallelMatchesSequential(t *testing.T) {
	const shards = 4
	seqEng, seqLog := buildShardedProgram(t, shards, 1)
	if err := seqEng.RunCtx(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	parEng, parLog := buildShardedProgram(t, shards, shards)
	if err := parEng.RunCtx(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < shards; s++ {
		a, b := (*seqLog)[s], (*parLog)[s]
		if len(a) != len(b) {
			t.Fatalf("shard %d: sequential fired %d events, parallel %d", s, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("shard %d event %d diverged: sequential %+v, parallel %+v", s, i, a[i], b[i])
			}
		}
	}
	if seqEng.Now() != parEng.Now() || seqEng.Stats() != parEng.Stats() {
		t.Fatalf("engine state diverged: seq(now=%v stats=%+v) par(now=%v stats=%+v)",
			seqEng.Now(), seqEng.Stats(), parEng.Now(), parEng.Stats())
	}
}

// TestShardedMailboxOrdering pins barrier delivery order: all sends
// buffered in an epoch are delivered in ascending (at, key) order no
// matter which shard sent them or in what order, and never before the
// barrier ending the epoch they were sent in.
func TestShardedMailboxOrdering(t *testing.T) {
	se, err := NewShardedEngine(ShardedConfig{Shards: 3, Epoch: time.Second, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	recv := func(now time.Duration, key uint64) {
		got = append(got, key)
		// Delivery is clamped to the barrier: a send targeting a time
		// inside its own epoch fires exactly at the barrier.
		if now < time.Second {
			t.Errorf("key %d delivered at %v, before the 1s barrier", key, now)
		}
	}
	// Shard 2 sends keys out of order, shard 1 interleaves; all target
	// shard 0 with at-times inside the first epoch.
	se.Shard(2).At(10*time.Millisecond, func(now time.Duration) {
		se.Send(2, 0, now, 40, recv, 40)
		se.Send(2, 0, now, 10, recv, 10)
	})
	se.Shard(1).At(20*time.Millisecond, func(now time.Duration) {
		se.Send(1, 0, now-10*time.Millisecond, 30, recv, 30) // earlier at wins over lower key
		se.Send(1, 0, now, 20, recv, 20)
	})
	if err := se.RunCtx(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	// Ordering is (at, key): at=10ms carries keys 10, 30, 40; at=20ms
	// carries key 20.
	want := []uint64{10, 30, 40, 20}
	if len(got) != len(want) {
		t.Fatalf("delivered %d events, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery order %v, want %v", got, want)
		}
	}
}

// TestShardedEpochGridSkipsEmptyStretches pins the sparse-schedule
// optimization: barriers land only on grid points covering pending work,
// so a schedule with two events a long gap apart costs two epochs, not
// gap/epoch epochs.
func TestShardedEpochGridSkipsEmptyStretches(t *testing.T) {
	se, err := NewShardedEngine(ShardedConfig{Shards: 2, Epoch: time.Second, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var fired []time.Duration
	se.Shard(0).At(500*time.Millisecond, func(now time.Duration) { fired = append(fired, now) })
	se.Shard(1).At(3*time.Hour+300*time.Millisecond, func(now time.Duration) { fired = append(fired, now) })
	if err := se.RunCtx(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != 500*time.Millisecond || fired[1] != 3*time.Hour+300*time.Millisecond {
		t.Fatalf("fired %v", fired)
	}
	if se.Epochs() != 2 {
		t.Fatalf("executed %d epochs for a 2-event sparse schedule, want 2", se.Epochs())
	}
	if se.Now() != 3*time.Hour+time.Second {
		t.Fatalf("final barrier %v, want 3h1s (grid ceil of last event)", se.Now())
	}
}

// TestShardedHorizonAndResume pins horizon semantics: the clock advances
// to the horizon, the remaining schedule survives, and a later RunCtx
// resumes it.
func TestShardedHorizonAndResume(t *testing.T) {
	se, err := NewShardedEngine(ShardedConfig{Shards: 2, Epoch: time.Second, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var fired []string
	se.Shard(0).At(300*time.Millisecond, func(now time.Duration) {
		fired = append(fired, fmt.Sprintf("a@%v", now))
	})
	se.Shard(0).At(5*time.Second, func(now time.Duration) {
		fired = append(fired, fmt.Sprintf("b@%v", now))
	})
	if err := se.RunCtx(context.Background(), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if se.Now() != 2*time.Second {
		t.Fatalf("clock %v after horizon return, want 2s", se.Now())
	}
	if len(fired) != 1 || fired[0] != "a@300ms" {
		t.Fatalf("horizon run fired %v", fired)
	}
	if err := se.RunCtx(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[1] != "b@5s" {
		t.Fatalf("resumed run fired %v", fired)
	}
}

// TestShardedHorizonInsidePartialEpoch pins the partial-epoch case: a
// horizon that is not a grid point still fires in-horizon events, with
// the final barrier on the horizon itself.
func TestShardedHorizonInsidePartialEpoch(t *testing.T) {
	se, err := NewShardedEngine(ShardedConfig{Shards: 1, Epoch: time.Second, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	se.Shard(0).At(1500*time.Millisecond, func(time.Duration) { n++ })
	se.Shard(0).At(1800*time.Millisecond, func(time.Duration) { n++ })
	if err := se.RunCtx(context.Background(), 1600*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("fired %d events inside partial-epoch horizon, want 1", n)
	}
	if se.Now() != 1600*time.Millisecond {
		t.Fatalf("clock %v, want the 1.6s horizon", se.Now())
	}
	if len(se.Shard(0).queue) != 1 {
		t.Fatalf("pending %d, want the 1.8s event intact", len(se.Shard(0).queue))
	}
}

// TestShardedRunCtxCancelled: a context cancelled from inside an event
// stops the run no later than that epoch's barrier, with the remaining
// queued events intact. No mail is in flight here, so a fresh RunCtx
// still finishes them; in general a cancelled run is not resumable.
func TestShardedRunCtxCancelled(t *testing.T) {
	se, err := NewShardedEngine(ShardedConfig{Shards: 2, Epoch: time.Second, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	se.Shard(0).At(100*time.Millisecond, func(time.Duration) { n++; cancel() })
	se.Shard(1).At(3*time.Second, func(time.Duration) { n++ })
	if err := se.RunCtx(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("run = %v, want context.Canceled", err)
	}
	if n != 1 {
		t.Fatalf("fired %d events before cancellation barrier, want 1", n)
	}
	if err := se.RunCtx(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("resume fired %d total, want 2", n)
	}
}

// TestShardedGridlessMatchesEngine pins the Epoch-0 contract: a lone shard
// without a grid fires what Engine.RunCtx fires, in one epoch, and stops
// its clock where Engine.RunCtx stops it — at the last event when the queue
// drains first, on the horizon otherwise.
func TestShardedGridlessMatchesEngine(t *testing.T) {
	program := func(e *Engine, fired *[]time.Duration) {
		var chain func(now time.Duration)
		chain = func(now time.Duration) {
			*fired = append(*fired, now)
			if len(*fired) < 1000 {
				e.After(700*time.Millisecond, chain)
			}
		}
		e.At(300*time.Millisecond, chain)
	}
	for _, horizon := range []time.Duration{0, time.Minute, time.Hour} {
		plain := NewEngine()
		var want []time.Duration
		program(plain, &want)
		if err := plain.RunCtx(context.Background(), horizon, 0); err != nil {
			t.Fatal(err)
		}
		se, err := NewShardedEngine(ShardedConfig{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		var got []time.Duration
		program(se.Shard(0), &got)
		if err := se.RunCtx(context.Background(), horizon); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || (len(got) > 0 && got[len(got)-1] != want[len(want)-1]) {
			t.Fatalf("horizon %v: gridless shard fired %d events, engine %d", horizon, len(got), len(want))
		}
		if se.Now() != plain.Now() || se.Stats() != plain.Stats() {
			t.Fatalf("horizon %v: gridless (now %v, %+v) vs engine (now %v, %+v)",
				horizon, se.Now(), se.Stats(), plain.Now(), plain.Stats())
		}
		if se.Epochs() != 1 {
			t.Fatalf("horizon %v: %d epochs without a grid, want 1", horizon, se.Epochs())
		}
	}
}

// TestShardedGridlessDeliversMailAtDrain: without a grid or a horizon the
// barrier is where the shards drained, so mail still arrives and the run
// continues until nothing is left.
func TestShardedGridlessDeliversMailAtDrain(t *testing.T) {
	se, err := NewShardedEngine(ShardedConfig{Shards: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var at time.Duration
	se.Shard(0).At(2*time.Second, func(now time.Duration) {
		se.Send(0, 1, now, 1, func(got time.Duration, _ uint64) { at = got }, 0)
	})
	se.Shard(1).At(5*time.Second, func(time.Duration) {})
	if err := se.RunCtx(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if at != 5*time.Second || se.Now() != 5*time.Second || se.Epochs() != 2 {
		t.Fatalf("mail fired at %v, clock %v, %d epochs; want 5s (the drain point), 5s, 2", at, se.Now(), se.Epochs())
	}
}

// TestShardedRunCtxCancelsInsideEpoch pins event-grained cancellation: a
// context cancelled from inside an event stops that shard within
// ctxCheckInterval events, not at the end of a (here: endless) epoch.
func TestShardedRunCtxCancelsInsideEpoch(t *testing.T) {
	for _, workers := range []int{1, 2} {
		se, err := NewShardedEngine(ShardedConfig{Shards: 2, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		n := 0
		var chain func(time.Duration)
		chain = func(time.Duration) {
			if n++; n == 100 {
				cancel()
			}
			se.Shard(0).After(time.Millisecond, chain) // never drains on its own
		}
		se.Shard(0).At(0, chain)
		if err := se.RunCtx(ctx, 0); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: run = %v, want context.Canceled", workers, err)
		}
		if n > 100+ctxCheckInterval {
			t.Fatalf("workers=%d: %d events fired, cancellation at 100 must bite within %d", workers, n, ctxCheckInterval)
		}
		if len(se.Shard(0).queue) != 1 {
			t.Fatalf("workers=%d: pending %d, want the chain's next event intact", workers, len(se.Shard(0).queue))
		}
	}
}

// TestShardedStatsMerge pins the merged accounting: event counts sum
// across shards, heap high-water takes the per-shard max, and per-shard
// mail counters balance (sent == received in a drained run).
func TestShardedStatsMerge(t *testing.T) {
	se, _ := buildShardedProgram(t, 4, 1)
	if err := se.RunCtx(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	merged := se.Stats()
	per := se.ShardStats()
	var fired, sched, sent, recv uint64
	maxHwm := 0
	for _, s := range per {
		fired += s.EventsFired
		sched += s.EventsScheduled
		sent += s.MailSent
		recv += s.MailRecv
		if s.HeapHighWater > maxHwm {
			maxHwm = s.HeapHighWater
		}
	}
	if merged.EventsFired != fired || merged.EventsScheduled != sched || merged.HeapHighWater != maxHwm {
		t.Fatalf("merged stats %+v disagree with per-shard sums (fired=%d sched=%d hwm=%d)",
			merged, fired, sched, maxHwm)
	}
	if sent == 0 || sent != recv {
		t.Fatalf("mail imbalance in drained run: sent %d, received %d", sent, recv)
	}
}

// TestShardedConfigValidation pins constructor errors and worker capping.
func TestShardedConfigValidation(t *testing.T) {
	if _, err := NewShardedEngine(ShardedConfig{Shards: 0, Epoch: time.Second}); err == nil {
		t.Fatal("0 shards accepted")
	}
	if _, err := NewShardedEngine(ShardedConfig{Shards: 2, Epoch: -time.Second}); err == nil {
		t.Fatal("negative epoch accepted")
	}
	se, err := NewShardedEngine(ShardedConfig{Shards: 2, Epoch: time.Second, Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	if se.workers != 2 {
		t.Fatalf("workers %d, want capped at shard count 2", se.workers)
	}
}

// TestShardedEpochOrderLongestFirst pins the parallel work queue: shards
// are handed out by descending previous-epoch busy time, ties by index, and
// every shard still runs exactly once per epoch.
func TestShardedEpochOrderLongestFirst(t *testing.T) {
	se, err := NewShardedEngine(ShardedConfig{Shards: 5, Epoch: time.Second, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	fired := make([]int, 5)
	for i := range fired {
		se.Shard(i).At(time.Millisecond, func(time.Duration) { fired[i]++ })
	}
	copy(se.lastBusy, []time.Duration{1, 3, 3, 0, 7})
	se.runEpoch(context.Background(), time.Second)
	if got, want := fmt.Sprint(se.order), "[4 1 2 0 3]"; got != want {
		t.Fatalf("epoch order %s, want %s", got, want)
	}
	for i, n := range fired {
		if n != 1 {
			t.Fatalf("shard %d fired %d events in the epoch, want 1", i, n)
		}
	}
}
