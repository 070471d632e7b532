// Package evald is the measurement node of the distributed evaluation
// plane: a thin HTTP server wrapping the shared evaluation core
// (runner.EvalConfig via dispatch.Eval) behind the wire protocol of
// internal/dispatch. It is deliberately stateless — a measurement is a
// pure function of the request, so nodes are interchangeable, a killed
// node loses nothing, and the controller's re-dispatch is free.
//
// Endpoints:
//
//	POST /v1/evaluate-batch  1 to dispatch.MaxBatchTrials evaluation
//	                         attempts in one round trip (a single attempt
//	                         is a batch of one); dispatch.BatchRequest in,
//	                         dispatch.BatchResult out, both in the binary
//	                         wire of dispatch.EncodeBatchRequest and
//	                         dispatch.EncodeBatchResult. Per-trial verdicts
//	                         come back positionally, so one bogus trial
//	                         rejects only its own entry; a bogus body gets
//	                         a 400 dispatch.ErrorEnvelope — never a panic.
//	GET  /healthz            liveness for the controller's heartbeats.
//	GET  /metrics            Prometheus exposition of the node's telemetry.
//
// Admission control mirrors the tuned farm: a concurrency gate sized to
// the host sheds excess load with 429 + Retry-After and the same JSON
// envelope shape, so a saturated node reads as "busy, come back" and the
// dispatch layer steals the trial to a sibling.
//
// With a bearer token configured (Config.Auth), the evaluate endpoint
// demands it and answers 401 + CodeUnauthorized envelopes otherwise —
// fail-closed: nothing is evaluated without credentials. /healthz and
// /metrics stay open (liveness probes and scrapers carry no secrets).
// Transport-level mutual TLS wraps the listener in cmd/evald, not here.
package evald

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"

	"repro/internal/dispatch"
	"repro/internal/flags"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Config parameterizes a node.
type Config struct {
	// Node is the name the node reports in results and /healthz;
	// defaults to "evald".
	Node string
	// MaxConcurrent bounds in-flight evaluations; excess requests are
	// shed with 429. Values below 1 mean GOMAXPROCS.
	MaxConcurrent int
	// Telemetry receives the node's metric series; nil means a private
	// registry (always exposed via /metrics).
	Telemetry *telemetry.Registry
	// Auth gates the evaluate endpoint (bearer token); nil or a zero
	// value means open.
	Auth *dispatch.Security
}

// Server is an evald node. It implements http.Handler.
type Server struct {
	cfg Config
	reg *flags.Registry
	tel *telemetry.Registry
	sem chan struct{}
	mux *http.ServeMux
}

// New builds a node.
func New(cfg Config) *Server {
	if cfg.Node == "" {
		cfg.Node = "evald"
	}
	if cfg.MaxConcurrent < 1 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.New()
	}
	s := &Server{
		cfg: cfg,
		reg: flags.NewRegistry(),
		tel: tel,
		sem: make(chan struct{}, cfg.MaxConcurrent),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc(dispatch.EvaluateBatchPath, s.handleEvaluateBatch)
	s.mux.HandleFunc(dispatch.HealthPath, s.handleHealth)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeEnvelope emits the protocol rejection envelope.
func writeEnvelope(w http.ResponseWriter, status int, env dispatch.ErrorEnvelope) {
	w.Header().Set("Content-Type", "application/json")
	if env.RetryAfterSeconds > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", env.RetryAfterSeconds))
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(env)
}

func (s *Server) rejected(w http.ResponseWriter, status int, env dispatch.ErrorEnvelope) {
	s.tel.Counter(`evald_rejected_total{code="` + env.Code + `"}`).Inc()
	writeEnvelope(w, status, env)
}

// readBody reads a request body, capped at dispatch.MaxBatchRequestBytes
// by http.MaxBytesReader, into one buffer sized from Content-Length:
// io.ReadAll's doubling chain was a fifth of all bytes a fleet session
// allocated. The spare MinRead bytes let bytes.Buffer see EOF without
// growing.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	const limit = dispatch.MaxBatchRequestBytes
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= limit {
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return buf.Bytes(), err
}

// writeResult sends an encoded answer with its Content-Length. Without
// it net/http chunks anything past its 2 KiB buffer, and the controller
// can no longer size its read. An answer that cannot be encoded is the
// node's fault: a 500 envelope, which the controller re-dispatches.
func writeResult(w http.ResponseWriter, body []byte, err error) {
	if err != nil {
		writeEnvelope(w, http.StatusInternalServerError, dispatch.ErrorEnvelope{
			Error: fmt.Sprintf("evald: encode result: %v", err), Code: dispatch.CodeInternal,
		})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// admit runs the admission gate for the evaluate endpoint: method,
// credentials, then the concurrency slot. It returns the slot's
// release func, or nil after writing the rejection. Credentials are
// checked before the semaphore so an unauthenticated flood can never
// starve real work, and the 401 leaks nothing about the node's load.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) func() {
	if r.Method != http.MethodPost {
		s.rejected(w, http.StatusMethodNotAllowed, dispatch.ErrorEnvelope{
			Error: "evald: POST required", Code: dispatch.CodeMethod,
		})
		return nil
	}
	if !s.cfg.Auth.Authorize(r) {
		s.rejected(w, http.StatusUnauthorized, dispatch.ErrorEnvelope{
			Error: "evald: missing or invalid credentials", Code: dispatch.CodeUnauthorized,
		})
		return nil
	}
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }
	default:
		s.tel.Counter("evald_shed_total").Inc()
		s.rejected(w, http.StatusTooManyRequests, dispatch.ErrorEnvelope{
			Error: "evald: node saturated", Code: dispatch.CodeBusy, RetryAfterSeconds: 1,
		})
		return nil
	}
}

func (s *Server) handleEvaluateBatch(w http.ResponseWriter, r *http.Request) {
	// A panic must never take the node down or leave the dispatcher
	// hanging: whatever slipped past validation becomes a 500 envelope.
	defer func() {
		if rec := recover(); rec != nil {
			s.tel.Counter("evald_panics_total").Inc()
			writeEnvelope(w, http.StatusInternalServerError, dispatch.ErrorEnvelope{
				Error: fmt.Sprintf("evald: internal error: %v", rec), Code: dispatch.CodeInternal,
			})
		}
	}()

	release := s.admit(w, r)
	if release == nil {
		return
	}
	defer release()

	body, err := readBody(w, r)
	if err != nil {
		s.rejected(w, http.StatusBadRequest, dispatch.ErrorEnvelope{
			Error: fmt.Sprintf("evald: read body: %v", err), Code: dispatch.CodeBadPayload,
		})
		return
	}
	req, err := dispatch.DecodeBatchRequest(body)
	if err != nil {
		s.rejected(w, http.StatusBadRequest, envelopeFor(err))
		return
	}
	// One benchmark profile serves the whole batch: a controller's wave is
	// one session's round, and sessions measure one workload. A mixed
	// batch still answers per-entry, not 400, and an unknown benchmark
	// (no profile) is rejected by dispatch.Eval's own check, worded as a
	// dispatch.Local node words it.
	res := &dispatch.BatchResult{Node: s.cfg.Node, Entries: make([]dispatch.BatchEntry, len(req.Trials))}
	byBench := make(map[string][]int)
	for i := range req.Trials {
		byBench[req.Trials[i].Benchmark] = append(byBench[req.Trials[i].Benchmark], i)
	}
	for bench, idxs := range byBench {
		prof, _ := workload.ByName(bench)
		sub := &dispatch.BatchRequest{Trials: make([]dispatch.TrialRequest, len(idxs))}
		for j, i := range idxs {
			sub.Trials[j] = req.Trials[i]
		}
		out := dispatch.EvalBatch(prof, s.reg, sub)
		for j, i := range idxs {
			e := out.Entries[j]
			if e.Result != nil {
				e.Result.Node = s.cfg.Node
				s.tel.Counter("evald_evaluations_total").Inc()
				s.tel.Histogram("evald_eval_cost_seconds", telemetry.DefSecondsBuckets).
					Observe(e.Result.Measurement.CostSeconds)
			} else if e.Error != nil {
				s.tel.Counter(`evald_rejected_total{code="` + e.Error.Code + `"}`).Inc()
			}
			res.Entries[i] = e
		}
	}
	s.tel.Counter("evald_batches_total").Inc()
	out, err := dispatch.EncodeBatchResult(res, req)
	writeResult(w, out, err)
}

// envelopeFor renders a protocol error as its wire envelope.
func envelopeFor(err error) dispatch.ErrorEnvelope {
	env := dispatch.ErrorEnvelope{Error: err.Error(), Code: dispatch.CodeBadPayload}
	var re *dispatch.RequestError
	if errors.As(err, &re) {
		env.Code = re.Code
	}
	return env
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":   "ok",
		"node":     s.cfg.Node,
		"inflight": len(s.sem),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.tel.WritePrometheus(w)
}
