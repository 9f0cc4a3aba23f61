package control

import (
	"testing"
	"time"
)

func TestParsePriority(t *testing.T) {
	cases := []struct {
		in   string
		want Priority
		err  bool
	}{
		{"", Interactive, false},
		{"interactive", Interactive, false},
		{"batch", Batch, false},
		{"background", Background, false},
		{"urgent", Interactive, true},
		{"BATCH", Interactive, true},
	}
	for _, c := range cases {
		got, err := ParsePriority(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParsePriority(%q) = (%v, %v), want (%v, err=%v)", c.in, got, err, c.want, c.err)
		}
	}
	if Interactive.String() != "interactive" || Background.String() != "background" {
		t.Fatalf("priority names drifted: %q %q", Interactive, Background)
	}
}

func TestTokenBucketBurstAndRefill(t *testing.T) {
	b := NewTokenBucket(1000, 3)
	for i := 0; i < 3; i++ {
		if d := b.Admit(1, Interactive); !d.Admit {
			t.Fatalf("request %d within burst rejected: %+v", i, d)
		}
	}
	d := b.Admit(1, Interactive)
	if d.Admit {
		t.Fatal("4th request admitted with an empty bucket")
	}
	if d.Reason != ReasonRateLimited {
		t.Fatalf("reason = %v, want rate_limited", d.Reason)
	}
	if d.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want a positive refill hint", d.RetryAfter)
	}
	// At 1000 tokens/s the bucket refills within a few milliseconds.
	deadline := time.Now().Add(time.Second)
	for !b.Admit(1, Interactive).Admit {
		if time.Now().After(deadline) {
			t.Fatal("bucket never refilled")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTokenBucketReserves pins the starvation-bound mechanism: with the
// bucket drained to its batch/background reserve floors, lower classes
// are refused while interactive is still admitted. Rate 0-ish keeps the
// refill from interfering within the test's runtime.
func TestTokenBucketReserves(t *testing.T) {
	b := NewTokenBucket(0.001, 100) // burst 100: floors are 25 (batch), 50 (background)
	// Drain to just under the background floor using interactive.
	for i := 0; i < 51; i++ {
		if d := b.Admit(1, Interactive); !d.Admit {
			t.Fatalf("interactive drain %d rejected early: %+v", i, d)
		}
	}
	if d := b.Admit(1, Background); d.Admit {
		t.Fatal("background admitted below its half-burst reserve")
	}
	if d := b.Admit(1, Batch); !d.Admit {
		t.Fatalf("batch rejected above its quarter-burst reserve: %+v", d)
	}
	// Drain past the batch floor too.
	for b.Admit(1, Interactive).Admit && b.tokensLeft() > 25 {
	}
	if d := b.Admit(1, Batch); d.Admit {
		t.Fatal("batch admitted below its reserve")
	}
	if d := b.Admit(1, Interactive); !d.Admit {
		t.Fatalf("interactive rejected while tokens remain: %+v", d)
	}
	// An invalid class is treated like background (the strictest floor).
	if d := b.Admit(1, Priority(9)); d.Admit {
		t.Fatal("invalid class admitted below the background reserve")
	}
}

func TestCostPolicy(t *testing.T) {
	b := NewCostPolicy(1, 1000)
	if d := b.Admit(600, Interactive); !d.Admit {
		t.Fatalf("600-unit request within the 1000 burst rejected: %+v", d)
	}
	d := b.Admit(600, Interactive)
	if d.Admit {
		t.Fatal("second 600-unit request admitted from a 400-token bucket")
	}
	if d.Reason != ReasonCostRejected {
		t.Fatalf("reason = %v, want cost_rejected", d.Reason)
	}
	// The refill hint scales with the deficit: ~200 units at 1 unit/s.
	if d.RetryAfter < 100*time.Second {
		t.Fatalf("RetryAfter = %v, want a deficit-scaled hint", d.RetryAfter)
	}
	// Tiny requests still pass while the remainder lasts.
	if d := b.Admit(1, Interactive); !d.Admit {
		t.Fatalf("1-unit request rejected with ~400 tokens left: %+v", d)
	}
}

func TestRejectStats(t *testing.T) {
	var s RejectStats
	s.Note(ReasonRateLimited)
	s.Note(ReasonRateLimited)
	s.Note(ReasonCostRejected)
	s.Note(Reason(200)) // out of range folds into queue_full
	if s.Count(ReasonRateLimited) != 2 || s.Count(ReasonCostRejected) != 1 || s.Count(ReasonQueueFull) != 1 {
		t.Fatalf("counts = qf:%d rl:%d cr:%d", s.Count(ReasonQueueFull), s.Count(ReasonRateLimited), s.Count(ReasonCostRejected))
	}
	if s.Total() != 4 {
		t.Fatalf("Total = %d, want 4", s.Total())
	}
}

// tokensLeft reads the bucket level (test helper; production code never
// inspects it).
func (t *TokenBucket) tokensLeft() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tokens
}
