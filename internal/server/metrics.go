package server

// Metric names the service emits into its obs.Registry, alongside the
// pipeline's own asp./msp./pde./pipeline. counters (one registry serves
// both). Gauges carry live levels with high-watermarks; everything else
// is a monotone counter. DESIGN.md "Service architecture" documents the
// accounting identities the soak test asserts.
const (
	// MReqAdmitted counts requests that won a pool ticket.
	MReqAdmitted = "server.requests.admitted"
	// MReqCompleted counts admitted requests that finished the pipeline
	// (successfully or with a pipeline error — the work ran to an answer).
	MReqCompleted = "server.requests.completed"
	// MReqCanceled counts admitted requests abandoned mid-pipeline
	// (client gone, deadline hit).
	MReqCanceled = "server.requests.canceled"
	// MReqShedPrefix + reason counts requests refused admission:
	// "queue_full" (429) or "draining" (503). admitted + shed.* accounts
	// for every localization request exactly once.
	MReqShedPrefix = "server.requests.shed."
	// MReqRejected counts requests refused before admission for malformed
	// input (bad content type, oversized body, undecodable bundle).
	MReqRejected = "server.requests.rejected"
	// MReqDuration is the end-to-end /v1/* request latency histogram
	// (seconds), observed by the trace middleware; the rolling SLO
	// window reads it for windowed p50/p95/p99 and attainment.
	MReqDuration = "server.request.duration"

	// GQueueDepth is the admitted-work level (running + queued); its Max
	// must never exceed workers + queue bound.
	GQueueDepth = "server.queue.depth"
	// GSessionsActive is the live streaming-session count.
	GSessionsActive = "server.sessions.active"

	// MSessCreated / MSessRecovered / MSessEvicted account for every
	// streaming session: created + recovered == evicted.* + active.
	// MSessRecovered counts every session the store handed back at
	// boot; the ones that failed to rebuild land under
	// evicted.recovered.*, so successful resumes are
	// recovered − evicted.recovered.*.
	MSessCreated       = "server.sessions.created"
	MSessRecovered     = "server.sessions.recovered"
	MSessEvictedPrefix = "server.sessions.evicted."

	// MStoreErrors counts session-store write failures (WAL append or
	// fsync errors). Durable-write failures surface as 500s on the
	// mutating request; best-effort events (locate audit, evictions)
	// only tally here.
	MStoreErrors = "server.store.errors"

	// MEncodeErrors counts responses whose body JSON refused to encode;
	// each was answered 500 instead.
	MEncodeErrors = "server.responses.encode_errors"
)

// Eviction reason codes appended to MSessEvictedPrefix. The
// recovered.* reasons are boot-time: a session came back from the
// store but could not be rebuilt (bad parameters, torn payload) or
// found no table capacity.
const (
	EvictIdle              = "idle"
	EvictCapacity          = "capacity"
	EvictExplicit          = "explicit"
	EvictShutdown          = "shutdown"
	EvictRecoveredInvalid  = "recovered.invalid"
	EvictRecoveredCapacity = "recovered.capacity"
)
