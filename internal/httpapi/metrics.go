package httpapi

import (
	"net/http"
	"strconv"
	"time"

	"fdlsp/internal/core"
	"fdlsp/internal/obs"
)

// Metric families of the HTTP service itself. Every route is wrapped by the
// instrumentation middleware, which records a per-route/method/status
// request counter, a per-route latency histogram, and the in-flight gauge.
// The same registry also receives the fdlsp_core_*, fdlsp_sim_* and
// fdlsp_transport_* families fed by the scheduling runs the /v1/schedule
// handler performs, so one GET /metrics scrape covers the whole stack.
const (
	metricHTTPRequests = "fdlsp_http_requests_total"
	metricHTTPLatency  = "fdlsp_http_request_duration_seconds"
	metricHTTPInFlight = "fdlsp_http_in_flight_requests"
)

// service carries the HTTP handlers' shared dependencies: the metrics
// registry, the clock (overridable in tests so latency buckets can be
// asserted deterministically), and the live schedule sessions.
type service struct {
	reg      *obs.Registry
	now      func() time.Time
	requests *obs.CounterVec
	latency  *obs.HistogramVec
	inflight *obs.Gauge

	sessions           *sessionStore
	sessionsCreated    *obs.Counter
	sessionsActive     *obs.Gauge
	sessionUpdates     *obs.CounterVec
	sessionEvents      *obs.CounterVec
	sessionRecolored   *obs.CounterVec
	sessionCachePatch  *obs.CounterVec
	sessionCacheArcs   *obs.CounterVec
	sessionCacheBuilds *obs.CounterVec
	sessionRounds      *obs.Histogram
	sessionLatency     *obs.HistogramVec
}

// newService builds the handler set over reg and pre-registers every metric
// family the service can emit — http, session, core, sim, and transport —
// so a scrape exposes the full schema before the first request.
func newService(reg *obs.Registry) *service {
	// The live-session gauge is owned by the store: add/remove update it
	// while still holding the store lock, so its value is never a stale
	// read-modify-write from a racing handler.
	active := reg.Gauge("fdlsp_session_active_sessions",
		"Schedule sessions currently live.")
	s := &service{
		reg: reg,
		//lint:ignore detrand HTTP request latency is wall-clock by definition; tests inject a fake clock
		now:      time.Now,
		requests: reg.CounterVec(metricHTTPRequests, "HTTP requests served, by route, method and status code.", "route", "method", "code"),
		latency:  reg.HistogramVec(metricHTTPLatency, "HTTP request latency in seconds, by route.", obs.DefLatencyBuckets(), "route"),
		inflight: reg.Gauge(metricHTTPInFlight, "Requests currently being served."),

		sessions: newSessionStore(active),
		sessionsCreated: reg.Counter("fdlsp_session_created_total",
			"Schedule sessions created over the server's lifetime."),
		sessionsActive: active,
		sessionUpdates: reg.CounterVec("fdlsp_session_updates_total",
			"Update batches applied, by session.", "session"),
		sessionEvents: reg.CounterVec("fdlsp_session_events_total",
			"Topology events applied, by session.", "session"),
		sessionRecolored: reg.CounterVec("fdlsp_session_recolored_arcs_total",
			"Arcs recolored by incremental repair, by session.", "session"),
		sessionCachePatch: reg.CounterVec("fdlsp_session_cache_patches_total",
			"Incremental conflict-cache patches applied, by session.", "session"),
		sessionCacheArcs: reg.CounterVec("fdlsp_session_cache_patched_arcs_total",
			"Conflict rows dropped by cache patches, by session.", "session"),
		sessionCacheBuilds: reg.CounterVec("fdlsp_session_cache_rebuilds_total",
			"Full conflict-cache rebuilds paid by update batches, by session.", "session"),
		sessionRounds: reg.Histogram("fdlsp_session_repair_rounds",
			"Distributed repair rounds per update batch.",
			[]float64{0, 1, 2, 4, 8, 16, 32, 64}),
		sessionLatency: reg.HistogramVec("fdlsp_session_update_duration_seconds",
			"Incremental update latency in seconds (repair only, excluding HTTP), by session.",
			obs.DefLatencyBuckets(), "session"),
	}
	core.RegisterMetrics(reg)
	return s
}

// statusWriter captures the status code a handler writes.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a route handler with request counting and latency
// observation. The route label is the registered pattern's path (bounded
// cardinality), never the raw URL.
func (s *service) instrument(route string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := s.now()
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(sw, r)
		s.requests.With(route, r.Method, strconv.Itoa(sw.code)).Inc()
		s.latency.With(route).Observe(s.now().Sub(start).Seconds())
	})
}

// mux assembles the routing table with every route instrumented.
func (s *service) mux() *http.ServeMux {
	mux := http.NewServeMux()
	route := func(pattern, path string, h http.HandlerFunc) {
		mux.Handle(pattern, s.instrument(path, h))
	}
	route("GET /healthz", "/healthz", handleHealth)
	route("POST /v1/schedule", "/v1/schedule", s.handleSchedule)
	route("POST /v1/session", "/v1/session", s.handleSessionCreate)
	route("GET /v1/session/{id}", "/v1/session/{id}", s.handleSessionGet)
	route("DELETE /v1/session/{id}", "/v1/session/{id}", s.handleSessionDelete)
	route("POST /v1/session/{id}/update", "/v1/session/{id}/update", s.handleSessionUpdate)
	route("POST /v1/verify", "/v1/verify", handleVerify)
	route("POST /v1/bounds", "/v1/bounds", handleBounds)
	route("POST /v1/render", "/v1/render", handleRender)
	route("POST /v1/traffic", "/v1/traffic", handleTraffic)
	route("POST /v1/energy", "/v1/energy", handleEnergy)
	mux.Handle("GET /metrics", s.instrument("/metrics", s.reg.Handler()))
	return mux
}
