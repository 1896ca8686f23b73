package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"hyperear/internal/sim"
)

// ctxSession lazily renders one small session shared by the cancellation
// tests (rendering dominates test time; the pipeline itself is fast).
var ctxSession = sync.OnceValues(func() (*sim.Session, error) {
	sc := ruler2DScenario(4, 7)
	sc.Protocol.Slides = 2
	return sim.Run(sc)
})

func ctxLocalizer(t *testing.T) (*Localizer, *sim.Session) {
	t.Helper()
	s, err := ctxSession()
	if err != nil {
		t.Fatal(err)
	}
	sc := ruler2DScenario(4, 7)
	loc, err := NewLocalizer(DefaultConfig(sc.Source, sc.Phone.SampleRate, sc.Phone.MicSeparation))
	if err != nil {
		t.Fatal(err)
	}
	return loc, s
}

func TestLocate2DContextCanceled(t *testing.T) {
	loc, s := ctxLocalizer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := loc.Locate2DContext(ctx, s.Recording, s.IMU); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled context: got %v, want context.Canceled", err)
	}
}

func TestLocate2DContextDeadline(t *testing.T) {
	loc, s := ctxLocalizer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	if _, err := loc.Locate2DContext(ctx, s.Recording, s.IMU); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: got %v, want context.DeadlineExceeded", err)
	}
}

func TestLocate2DContextBackground(t *testing.T) {
	loc, s := ctxLocalizer(t)
	res, err := loc.Locate2DContext(context.Background(), s.Recording, s.IMU)
	if err != nil {
		t.Fatalf("background context should behave like Locate2D: %v", err)
	}
	plain, err := loc.Locate2D(s.Recording, s.IMU)
	if err != nil {
		t.Fatal(err)
	}
	// Same localizer, same session, deterministic pipeline: the two runs
	// must agree bit-for-bit, so an exact compare is the right assertion.
	if res.L != plain.L || len(res.Fixes) != len(plain.Fixes) {
		t.Fatalf("context and plain results diverge: L %v vs %v, fixes %d vs %d",
			res.L, plain.L, len(res.Fixes), len(plain.Fixes))
	}
}

func TestASPProcessContextCanceled(t *testing.T) {
	loc, s := ctxLocalizer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := loc.asp.ProcessContext(ctx, s.Recording); !errors.Is(err, context.Canceled) {
		t.Fatalf("ASP with pre-canceled context: got %v, want context.Canceled", err)
	}
}

// countdownCtx is a context whose Err flips to context.Canceled after a
// fixed number of Err calls, so cancellation deterministically lands in
// the middle of a detection pass rather than before it starts.
// The counter is atomic because ASP's channel fan-out calls Err from
// several goroutines at once, as the Context contract allows.
type countdownCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestASPProcessContextCancelMidRecording: the two-level channel×block
// schedule checks ctx between overlap-save blocks, so a context canceled
// only after the detection pass has started still aborts the stage — and
// the per-block checks actually happen (the Err call count exceeds the
// handful of stage-boundary checks by at least the block count).
func TestASPProcessContextCancelMidRecording(t *testing.T) {
	loc, s := ctxLocalizer(t)

	// A never-canceling counter proves detection polls the context per
	// block: one full pass must consult Err far more often than the ~4
	// stage-boundary checks the pre-segmented pipeline made.
	counting := &countdownCtx{Context: context.Background(), after: 1 << 62}
	if _, err := loc.asp.ProcessContext(counting, s.Recording); err != nil {
		t.Fatal(err)
	}
	if n := counting.calls.Load(); n < 8 {
		t.Fatalf("ProcessContext consulted ctx.Err only %d times; want per-block checks", n)
	}

	// Cancel mid-pass: the entry checks pass, then the countdown expires
	// between blocks and the stage must surface context.Canceled.
	mid := &countdownCtx{Context: context.Background(), after: 3}
	if _, err := loc.asp.ProcessContext(mid, s.Recording); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-recording cancel: got %v, want context.Canceled", err)
	}
	if n := mid.calls.Load(); n <= mid.after {
		t.Fatalf("countdown never expired (%d calls); cancel did not land mid-pass", n)
	}
}

func TestLocateFull3DContextCanceled(t *testing.T) {
	loc, s := ctxLocalizer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := loc.LocateFull3DContext(ctx, s.Recording, s.IMU); !errors.Is(err, context.Canceled) {
		t.Fatalf("full3D with pre-canceled context: got %v, want context.Canceled", err)
	}
}
