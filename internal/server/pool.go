package server

import (
	"context"
	"errors"
	"sync"

	"hyperear/internal/obs"
)

// errQueueFull is returned by acquire when the admission queue is at its
// bound; the handler maps it to 429 with Retry-After.
var errQueueFull = errors.New("server: admission queue full")

// errDraining is returned once graceful shutdown has begun; the handler
// maps it to 503 with Retry-After.
var errDraining = errors.New("server: draining")

// pool is the admission-controlled worker pool every localization runs
// through. Two chained channel semaphores give the bounded-queue
// behavior: tickets caps admitted work (running + waiting, the queue
// bound), slots caps concurrently running work (the worker bound). A
// request that cannot take a ticket without blocking is shed immediately
// — the server never builds an unbounded backlog, it pushes back.
type pool struct {
	tickets chan struct{} // capacity workers+queue: admitted (running+queued)
	slots   chan struct{} // capacity workers: running
	depth   *obs.Gauge    // mirrors len(tickets); Max() is the watermark
	done    chan struct{} // closed by drain: wakes queued waiters
	drainMu sync.Once
}

// newPool sizes the pool: workers concurrent localizations, queue
// additional admitted-but-waiting requests. Both must be ≥ 1 / ≥ 0;
// callers normalize before this.
func newPool(workers, queue int, depth *obs.Gauge) *pool {
	return &pool{
		tickets: make(chan struct{}, workers+queue),
		slots:   make(chan struct{}, workers),
		depth:   depth,
		done:    make(chan struct{}),
	}
}

// acquire admits one unit of work. On success the returned release
// function MUST be called exactly once when the work finishes. Failure
// modes: errQueueFull (queue at bound — shed now), errDraining (shutdown
// began while waiting), or the context's error (client gave up while
// queued).
func (p *pool) acquire(ctx context.Context) (release func(), err error) {
	select {
	case <-p.done:
		return nil, errDraining
	default:
	}
	select {
	case p.tickets <- struct{}{}:
	default:
		return nil, errQueueFull
	}
	p.depth.Add(1)
	giveBack := func() {
		<-p.tickets
		p.depth.Add(-1)
	}
	select {
	case p.slots <- struct{}{}:
		return func() {
			<-p.slots
			giveBack()
		}, nil
	case <-ctx.Done():
		giveBack()
		return nil, context.Cause(ctx)
	case <-p.done:
		giveBack()
		return nil, errDraining
	}
}

// drain stops admitting: queued waiters wake with errDraining, future
// acquires fail fast. Work already holding a slot is unaffected — the
// HTTP layer's Shutdown waits for those handlers to return. Idempotent
// and safe to call concurrently.
func (p *pool) drain() {
	p.drainMu.Do(func() { close(p.done) })
}
