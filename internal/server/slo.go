package server

import (
	"bytes"
	"net/http"
	"sort"
	"strings"

	"hyperear/internal/obs"
)

// promNamespace prefixes every metric the Prometheus exposition emits.
const promNamespace = "hyperear"

// wantsPrometheus decides whether /metrics should answer in Prometheus
// text exposition format: an explicit ?format=prometheus always wins,
// any other explicit format always loses, and without one the Accept
// header decides (Prometheus scrapers ask for openmetrics or
// text/plain;version=0.0.4).
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus":
		return true
	case "text", "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "openmetrics") || strings.Contains(accept, "version=0.0.4")
}

// writePrometheus renders the full Prometheus exposition: the registry
// snapshot, the Go runtime's own health metrics, and the rolling-window
// latency quantiles as summaries under a hyperear_rolling_ prefix.
func (s *Server) writePrometheus(w http.ResponseWriter, snap obs.Snapshot) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b bytes.Buffer
	obs.WritePrometheus(&b, snap, promNamespace)
	obs.WriteRuntimeMetrics(&b, promNamespace)
	if s.window != nil {
		rolling, _ := s.window.Rolling(s.clock())
		names := make([]string, 0, len(rolling))
		for name := range rolling {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			obs.WriteQuantileSummary(&b, promNamespace+"_rolling_"+obs.PromName(name), rolling[name])
		}
	}
	w.Write(b.Bytes())
}

// quantilesJSON is one histogram's rolling latency summary (seconds).
type quantilesJSON struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

func quantiles(h obs.HistSnapshot) quantilesJSON {
	return quantilesJSON{
		Count: h.Count,
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// sloResponse is the /debug/slo body: how the service is doing against
// its latency objective over the rolling window.
type sloResponse struct {
	// WindowSeconds is the wall clock the rolling figures actually
	// cover (shorter than NominalSeconds until the ring has filled).
	WindowSeconds float64 `json:"windowSeconds"`
	// NominalSeconds is the configured window span.
	NominalSeconds float64 `json:"nominalSeconds"`
	// TargetSeconds is the per-request latency target.
	TargetSeconds float64 `json:"targetSeconds"`
	// Objective is the attainment fraction the SLO demands (e.g. 0.99).
	Objective float64 `json:"objective"`
	// Requests is how many /v1/* requests the window holds.
	Requests uint64 `json:"requests"`
	// Attainment is the fraction of windowed requests at or under the
	// target (1 when the window is empty: no traffic burns no budget).
	Attainment float64 `json:"attainment"`
	// ErrorBudgetBurn is (1-attainment)/(1-objective): 1.0 means the
	// service is spending error budget exactly as fast as the SLO
	// allows, above 1 it is burning down.
	ErrorBudgetBurn float64 `json:"errorBudgetBurn"`
	// Request is the rolling request-latency summary.
	Request quantilesJSON `json:"request"`
	// Stages maps stage span names (asp, msp, pde, ttl, locate2d, ...)
	// to their rolling latency summaries.
	Stages map[string]quantilesJSON `json:"stages"`
}

// handleSLO reports rolling latency attainment against the configured
// objective (see sloResponse).
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	if s.window == nil {
		s.writeJSON(w, http.StatusOK, struct{}{})
		return
	}
	rolling, win := s.window.Rolling(s.clock())
	resp := sloResponse{
		WindowSeconds:  win.Seconds(),
		NominalSeconds: s.window.Span().Seconds(),
		TargetSeconds:  s.cfg.SLOTarget.Seconds(),
		Objective:      s.cfg.SLOObjective,
		Attainment:     1,
		Stages:         make(map[string]quantilesJSON),
	}
	if h, ok := rolling[MReqDuration]; ok && h.Count > 0 {
		resp.Requests = h.Count
		resp.Request = quantiles(h)
		resp.Attainment = h.CDF(resp.TargetSeconds)
	}
	if resp.Objective < 1 {
		resp.ErrorBudgetBurn = (1 - resp.Attainment) / (1 - resp.Objective)
	}
	for name, h := range rolling {
		if stage, ok := strings.CutPrefix(name, "span."); ok {
			resp.Stages[stage] = quantiles(h)
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}
