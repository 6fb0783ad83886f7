package fed

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"peoplesnet/internal/etl"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func historyContains(h []ShardState, want ShardState) bool {
	for _, s := range h {
		if s == want {
			return true
		}
	}
	return false
}

// TestSupervisorBreakerTransitions drives one shard through the full
// breaker state machine: its store cannot open (every restart fails),
// so the shard walks closed (running) -> backoff -> open, then
// half-open probes; once the store heals, a probe succeeds, the shard
// returns to running, and catching up closes the breaker (consecutive
// failures reset to zero). While the breaker is open, queries degrade
// to reported Gaps immediately instead of blocking on restarts.
func TestSupervisorBreakerTransitions(t *testing.T) {
	c := testChain(t)
	base := t.TempDir()

	// Shard 0's "disk": a plain file where the store directory should
	// be, so etl.Open fails until healed.
	badDir := filepath.Join(base, "shard-0")
	if err := os.WriteFile(badDir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	var healed atomic.Bool

	part := ByHeight(2, c.Height())
	cl := followChain(t, c, part, Options{
		PerShardTimeout: time.Minute,
		Quorum:          0.5,
		CacheSize:       -1,
		ShardStore: func(id ShardID) (string, etl.Config) {
			if id == 0 && healed.Load() {
				return filepath.Join(base, "shard-0-healed"), etl.Config{SegmentBlocks: 16}
			}
			return filepath.Join(base, fmt.Sprintf("shard-%d", id)), etl.Config{SegmentBlocks: 16}
		},
	})
	defer cl.Close()

	sup := cl.Supervise(SupervisorOptions{
		ProbeInterval: 2 * time.Millisecond,
		BackoffBase:   time.Millisecond,
		BackoffMax:    4 * time.Millisecond,
		MaxRestarts:   3,
		HalfOpenAfter: 30 * time.Millisecond,
	})

	waitFor(t, 10*time.Second, "breaker to open after 3 consecutive failures", func() bool {
		return sup.ShardState(0) == StateOpen
	})
	st := sup.Status()[0]
	if !historyContains(st.History, StateBackoff) {
		t.Fatalf("no backoff state before the breaker opened: %+v", st)
	}
	if st.Consecutive < 3 {
		t.Fatalf("breaker opened with only %d consecutive failures", st.Consecutive)
	}

	// Open breaker: a full-range query completes immediately with the
	// dead shard degraded to its gap — no blocking on restart cycles.
	gFrom, gTo := part.HeightSpan(0)
	start := time.Now()
	res, err := cl.Query(context.Background(), Query{Kind: KindCount, Range: etl.All()})
	if err != nil {
		t.Fatalf("query with open breaker: %v", err)
	}
	if len(res.Missing) != 1 || res.Missing[0] != 0 {
		t.Fatalf("missing = %v, want [0]", res.Missing)
	}
	if len(res.Gaps) != 1 || res.Gaps[0].From != gFrom || res.Gaps[0].To != gTo {
		t.Fatalf("gaps = %+v, want [[%d, %d]]", res.Gaps, gFrom, gTo)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("open-breaker query took %v — it blocked instead of degrading", waited)
	}

	// The open breaker still probes: a half-open attempt must appear.
	waitFor(t, 10*time.Second, "a half-open probe", func() bool {
		return historyContains(sup.Status()[0].History, StateHalfOpen)
	})

	// Heal the disk: the next probe restart succeeds, the shard runs
	// and catches up, and the failure streak resets.
	healed.Store(true)
	waitFor(t, 10*time.Second, "shard 0 to run again after healing", func() bool {
		return sup.ShardState(0) == StateRunning
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := cl.WaitHeight(ctx, c.Height()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "breaker to close (consecutive failures reset)", func() bool {
		return sup.Status()[0].Consecutive == 0
	})

	res, err = cl.Query(context.Background(), Query{Kind: KindCount, Range: etl.All()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Missing) != 0 || len(res.Gaps) != 0 {
		t.Fatalf("recovered cluster still degraded: missing=%v gaps=%v", res.Missing, res.Gaps)
	}
	if st := sup.Status()[0]; st.Restarts == 0 {
		t.Fatalf("no restarts recorded through the breaker cycle: %+v", st)
	}
}

// TestSupervisorWaitHeightToleratesDownShard: WaitHeight under
// supervision treats a down shard as "catching up", not a terminal
// error, and still honors its context deadline.
func TestSupervisorWaitHeightToleratesDownShard(t *testing.T) {
	c := testChain(t)
	cl := testCluster(t, c, ByHeight(2, c.Height()), Options{})

	// Unsupervised: killing a shard fails WaitHeight immediately.
	if err := cl.Kill(0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := cl.WaitHeight(ctx, c.Height()); err == nil {
		t.Fatal("unsupervised WaitHeight ignored a dead shard")
	}

	// Supervised: the dead shard counts as not-caught-up; with no way
	// to recover (the chain source is fine, so it will recover) —
	// attach a supervisor and the wait should succeed via restart.
	sup := cl.Supervise(SupervisorOptions{
		ProbeInterval: 2 * time.Millisecond,
		BackoffBase:   time.Millisecond,
		BackoffMax:    4 * time.Millisecond,
	})
	defer sup.Close()
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel2()
	if err := cl.WaitHeight(ctx2, c.Height()); err != nil {
		t.Fatalf("supervised WaitHeight after kill: %v", err)
	}
	if sup.Status()[0].Restarts == 0 {
		t.Fatal("supervisor never restarted the killed shard")
	}
}
