package health

import (
	"testing"
	"time"
)

func cfg() Config { return Config{OpenFor: 10 * time.Second} }

func TestClosedAdmitsAndFailureStreakOpens(t *testing.T) {
	s := NewSet(cfg(), 4)
	now := time.Duration(0)
	for i := 0; i < 2; i++ {
		if !s.Allow(1, now) {
			t.Fatalf("closed breaker rejected call %d", i)
		}
		s.Failure(1, now)
		if got := s.State(1); got != Closed {
			t.Fatalf("after %d failures state = %v, want closed", i+1, got)
		}
	}
	s.Failure(1, now)
	if got := s.State(1); got != Open {
		t.Fatalf("after threshold failures state = %v, want open", got)
	}
	if s.Opens != 1 {
		t.Fatalf("Opens = %d, want 1", s.Opens)
	}
	if s.Allow(1, now+time.Second) {
		t.Fatal("open breaker admitted a call inside the window")
	}
	if s.Skips != 1 {
		t.Fatalf("Skips = %d, want 1", s.Skips)
	}
}

func TestSuccessResetsStreak(t *testing.T) {
	s := NewSet(cfg(), 2)
	s.Failure(0, 0)
	s.Failure(0, 0)
	s.Success(0)
	s.Failure(0, 0)
	s.Failure(0, 0)
	if got := s.State(0); got != Closed {
		t.Fatalf("state = %v, want closed (streak should reset on success)", got)
	}
	s.Failure(0, 0)
	if got := s.State(0); got != Open {
		t.Fatalf("state = %v, want open", got)
	}
}

func TestHalfOpenProbation(t *testing.T) {
	s := NewSet(cfg(), 2)
	for i := 0; i < 3; i++ {
		s.Failure(0, 0)
	}
	// Window not elapsed: rejected.
	if s.Allow(0, 9*time.Second) {
		t.Fatal("admitted before OpenFor elapsed")
	}
	// Window elapsed: exactly one probe admitted.
	if !s.Allow(0, 11*time.Second) {
		t.Fatal("half-open breaker rejected the probation probe")
	}
	if got := s.State(0); got != HalfOpen {
		t.Fatalf("state = %v, want half-open", got)
	}
	if s.Allow(0, 11*time.Second) {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	if s.Probes != 1 {
		t.Fatalf("Probes = %d, want 1", s.Probes)
	}

	// Probe failure re-opens for another full window.
	s.Failure(0, 11*time.Second)
	if got := s.State(0); got != Open {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	if s.Allow(0, 20*time.Second) {
		t.Fatal("re-opened breaker admitted a call before the new window elapsed")
	}

	// Probe success closes.
	if !s.Allow(0, 22*time.Second) {
		t.Fatal("rejected probe after re-open window elapsed")
	}
	s.Success(0)
	if got := s.State(0); got != Closed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
	if s.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", s.Recoveries)
	}
	if !s.Allow(0, 22*time.Second) {
		t.Fatal("closed breaker rejected a call")
	}
}

func TestResetClearsState(t *testing.T) {
	s := NewSet(cfg(), 1)
	for i := 0; i < 3; i++ {
		s.Failure(0, 0)
	}
	s.Reset(0)
	if got := s.State(0); got != Closed {
		t.Fatalf("state after reset = %v, want closed", got)
	}
	if !s.Allow(0, 0) {
		t.Fatal("reset breaker rejected a call")
	}
}

func TestUntrackedIDsAlwaysAdmitted(t *testing.T) {
	s := NewSet(cfg(), 2)
	for _, id := range []int{-1, 2, 99} {
		for i := 0; i < 10; i++ {
			s.Failure(id, 0)
		}
		if !s.Allow(id, 0) {
			t.Fatalf("untracked id %d rejected", id)
		}
		s.Success(id) // must not panic
	}
}

func TestOperationsAllocationFree(t *testing.T) {
	s := NewSet(cfg(), 8)
	allocs := testing.AllocsPerRun(100, func() {
		for id := 0; id < 8; id++ {
			s.Allow(id, 0)
			s.Failure(id, 0)
			s.Success(id)
		}
	})
	if allocs != 0 {
		t.Fatalf("breaker ops allocated %.1f times per run, want 0", allocs)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Closed: "closed", Open: "open", HalfOpen: "half-open", State(9): "unknown"} {
		if got := s.String(); got != want {
			t.Fatalf("State(%d).String() = %q, want %q", s, got, want)
		}
	}
}
