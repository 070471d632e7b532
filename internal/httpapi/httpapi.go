// Package httpapi exposes the auto-tuner as an HTTP service: a tuning farm
// front-end where clients submit budgeted tuning jobs and poll for results.
//
// Jobs run asynchronously on a bounded worker pool (Config.MaxConcurrent
// sessions at a time; further jobs wait in a queue), report live progress
// while they run, can be canceled, and survive panicking searchers — a
// panic fails the job, never the server. The job store itself is bounded
// (Config.MaxJobs): once full, the oldest finished jobs are evicted to make
// room, and if every stored job is still active, new submissions are
// rejected with 503 rather than growing without limit. Tuning sessions are
// CPU-bound on the simulator — a 200-minute virtual session is tens of real
// milliseconds — so the API also supports synchronous mode for convenience.
//
// Routes:
//
//	GET    /v1/benchmarks          list the built-in workloads
//	GET    /v1/searchers           list the search strategies
//	GET    /v1/scenarios           list the named fault-injection scenarios
//	POST   /v1/tune                submit a job; ?sync=1 waits and returns it
//	GET    /v1/jobs                list jobs
//	GET    /v1/jobs/{id}           job status, live progress, and the result
//	GET    /v1/jobs/{id}/trace     a finished job's event trace as JSONL
//	                               (X-Trace-Dropped: events the trace lost)
//	DELETE /v1/jobs/{id}           cancel a queued or running job
//	POST   /v1/measure             evaluate one flag set on one benchmark
//	GET    /metrics                farm metrics in Prometheus text format
//	GET    /v1/trace               the server's job-lifecycle trace as JSONL
//
// Under overload the farm sheds load explicitly instead of queueing without
// bound (see admission.go): submissions bounce with 429 once the accept
// queue passes Config.MaxQueueDepth or a client exceeds its token-bucket
// rate, while polls and cancels — the control class — are never shed.
//
// With Config.TransferDir the farm keeps a cross-workload knowledge base
// (see docs/TRANSFER.md): jobs submitted with "transfer": true warm-start
// their search from the best configurations stored for the nearest workload
// fingerprints and record their winners back for later jobs. Polls on a
// finished transfer job carry the warm-start provenance (priors injected,
// nearest workload and distance, whether the winner was recorded) under
// result.transfer.
//
// # Error responses
//
// Every error body is the JSON envelope {"error": "..."}; load-shed and
// shutdown rejections additionally carry "retry_after_seconds" mirroring
// their Retry-After header. Per route:
//
//	POST /v1/tune
//	    400  malformed body, missing/unknown benchmark, or options no
//	         session accepts (hotspot.CheckOptions: a bad chaos plan,
//	         negative retry_attempts, out-of-range workers or reps, ...)
//	    429  + Retry-After: accept queue full (async submissions), or the
//	         client exceeded its submission rate (X-Client token bucket)
//	    503  + Retry-After: server shutting down, or the job store is full
//	         of live jobs with nothing evictable
//	    503  journal append failed (durable farms; submission not accepted)
//	GET /v1/jobs/{id}, DELETE /v1/jobs/{id}, GET /v1/jobs/{id}/trace
//	    400  non-numeric job id
//	    404  no such job (never submitted, or evicted)
//	    409  cancel of an already-terminal job; trace of a still-live job
//	POST /v1/measure
//	    400  malformed body, unknown benchmark, or malformed flags
//	    422  flags parsed but the simulated VM failed to run them — a
//	         legitimate measurement outcome, not a malformed request
//	    429  + Retry-After: client exceeded its submission rate
//
// With Config.EnablePprof the net/http/pprof profiling handlers are also
// mounted under /debug/pprof/ (off by default: profiling endpoints leak
// internals and cost CPU, so production deployments opt in explicitly).
//
// With Config.StateDir the farm is durable (see durable.go): lifecycle
// transitions are journaled ahead of taking effect and running jobs
// checkpoint their tuning sessions, so a restarted server serves finished
// results from disk and resumes interrupted jobs mid-search.
//
// Every job runs with its own metrics registry and tracer: job polls carry a
// point-in-time snapshot of the job's series, and a finished job's full
// event trace is available at /v1/jobs/{id}/trace. Server-wide farm state
// (queue depth, running sessions, job verdicts) lives in the /metrics
// registry, and job lifecycle transitions stream through an asynchronous
// collector that Shutdown drains — no event is lost on graceful shutdown.
//
// All bodies are JSON. The service is self-contained and uses only the
// standard library.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"

	"repro/hotspot"
	"repro/internal/checkpoint"
	"repro/internal/flags"
	"repro/internal/telemetry"
)

// TuneRequest is the body of POST /v1/tune.
type TuneRequest struct {
	Benchmark     string  `json:"benchmark"`
	Searcher      string  `json:"searcher,omitempty"`
	BudgetMinutes float64 `json:"budget_minutes,omitempty"`
	Reps          int     `json:"reps,omitempty"`
	Seed          int64   `json:"seed,omitempty"`
	Workers       int     `json:"workers,omitempty"`
	// Chaos runs the job under the deterministic fault-injection layer: a
	// named scenario (GET /v1/scenarios) or a fault-plan DSL spec such as
	// "launch=0.1,spike=0.2". Empty means no injected faults. Job polls
	// then surface retry/flake stats in progress and the final result.
	Chaos string `json:"chaos,omitempty"`
	// RetryAttempts bounds attempts per measurement for transient failures;
	// 0 means the default (3).
	RetryAttempts int `json:"retry_attempts,omitempty"`
	// Hedge enables straggler hedging: trials exceeding a percentile-based
	// virtual deadline are charged as if a duplicate dispatch had finished
	// first (see core.HedgePolicy).
	Hedge bool `json:"hedge,omitempty"`
	// Quarantine enables the failure circuit breaker: flag-hierarchy
	// subtrees with a high deterministic-failure density are temporarily
	// rejected without spending budget (see core.QuarantinePolicy).
	Quarantine bool `json:"quarantine,omitempty"`
	// Transfer opts the job into the farm's cross-workload knowledge base
	// (Config.TransferDir; see docs/TRANSFER.md): the session warm-starts
	// from the nearest stored workload fingerprints and records its winner
	// back. Ignored when the farm runs without a transfer store. Polls on a
	// finished job carry the warm-start provenance in result.transfer.
	Transfer bool `json:"transfer,omitempty"`
	// TransferK is the number of nearest stored fingerprints to draw
	// warm-start priors from; 0 means the default (3).
	TransferK int `json:"transfer_k,omitempty"`
	// Drift arms workload-drift detection and live re-tuning for the job
	// (see docs/DRIFT.md): a confirmed score shift opens a new tuning epoch
	// warm-started from the demoted winner (plus transfer priors when the
	// job also sets "transfer"). Polls on the finished job carry the
	// per-epoch breakdown under result.epochs. Pair with a chaos plan that
	// schedules the shift (drift-at=N, drift-midrun, drift-storm).
	Drift bool `json:"drift,omitempty"`
	// DriftSensitivity scales the drift detector's decision threshold:
	// 1 (or 0) is the calibrated default, higher fires on weaker evidence.
	// Requires "drift": true.
	DriftSensitivity float64 `json:"drift_sensitivity,omitempty"`
}

// Job is the server's view of one tuning request.
type Job struct {
	ID      int         `json:"id"`
	State   string      `json:"state"` // "queued" | "running" | "done" | "failed" | "canceled"
	Request TuneRequest `json:"request"`
	Error   string      `json:"error,omitempty"`
	// Progress is the live best-so-far snapshot of a running job.
	Progress *hotspot.Progress `json:"progress,omitempty"`
	Result   *hotspot.Result   `json:"result,omitempty"`
	// Telemetry is a point-in-time snapshot of the job's own metric series
	// (runner_*, session_*, and under chaos the chaos_* counters), taken
	// when the job is serialized. Histograms appear as name_count/name_sum.
	Telemetry map[string]float64 `json:"telemetry,omitempty"`

	cancel context.CancelFunc
	tel    *telemetry.Registry
	trace  *telemetry.Tracer
	// requeue marks a job whose cancellation is an interruption, not a
	// verdict (shutdown deadline, simulated crash): its terminal state is
	// kept out of the journal and its checkpoint stays on disk, so a
	// restarted server re-queues and resumes it.
	requeue bool
}

// terminal reports whether the job has reached a final state.
func (j *Job) terminal() bool {
	switch j.State {
	case "done", "failed", "canceled":
		return true
	}
	return false
}

// MeasureRequest is the body of POST /v1/measure.
type MeasureRequest struct {
	Benchmark string   `json:"benchmark"`
	Args      []string `json:"args"`
	Rep       int      `json:"rep,omitempty"`
}

// MeasureResponse is the reply of POST /v1/measure.
type MeasureResponse struct {
	WallSeconds float64 `json:"wall_seconds"`
}

// Config bounds the server's resources.
type Config struct {
	// MaxConcurrent is the number of tuning sessions run simultaneously;
	// further accepted jobs wait in the queue. Default 4.
	MaxConcurrent int
	// MaxJobs caps the job store (and the queue). When the store is full,
	// the oldest finished jobs are evicted; if every job is still queued or
	// running, new submissions are rejected with 503. Default 256.
	MaxJobs int
	// EnablePprof mounts the net/http/pprof handlers under /debug/pprof/.
	// Off by default: profiling endpoints expose internals and burn CPU, so
	// deployments opt in (the tuned binary's -pprof flag).
	EnablePprof bool
	// StateDir makes the farm durable: job submissions, transitions, and
	// results are journaled there ahead of taking effect, and every running
	// job checkpoints its tuning session to its own file in the directory.
	// A restarted server replays the journal — finished results are served
	// from disk, interrupted jobs are re-queued and resume from their
	// checkpoints. Empty (the default) keeps the farm purely in-memory.
	// Durable deployments should construct with NewDurableServer.
	StateDir string
	// CheckpointEveryTrials is the per-job checkpoint cadence when StateDir
	// is set; 0 means the checkpoint package default.
	CheckpointEveryTrials int
	// MaxQueueDepth bounds the accept queue for async submissions: once
	// this many jobs are waiting (not yet running), further POST /v1/tune
	// requests are shed with 429 + Retry-After instead of queueing. 0 means
	// MaxJobs (the queue's physical capacity); negative disables the check.
	MaxQueueDepth int
	// ClientRatePerSec enables per-client token-bucket fairness on the
	// submission class (POST /v1/tune and /v1/measure), keyed by the
	// X-Client header: each client accrues this many submissions per
	// second, and a dry bucket sheds with 429 + Retry-After. 0 (default)
	// disables rate limiting.
	ClientRatePerSec float64
	// ClientBurst is the token-bucket capacity per client; 0 means
	// max(1, ceil(ClientRatePerSec)).
	ClientBurst int
	// JournalCompactBytes is the farm-journal size (bytes) past which a
	// durable server compacts: the append history is rewritten as the
	// minimal record stream reproducing the live job store. 0 means the
	// default (1 MiB); negative disables compaction.
	JournalCompactBytes int64
	// Nodes, when non-empty, runs every tuning session against this fleet
	// of evald evaluator nodes ("host:port" or URLs) instead of measuring
	// in-process: tuned becomes the control plane of the distributed
	// evaluation plane (see docs/DISTRIBUTED.md). Results for a fixed seed
	// are byte-identical either way. With StateDir, each job additionally
	// journals its fleet view next to its checkpoint.
	Nodes []string
	// DispatchBatch ships up to this many trials per evaluate-batch round
	// trip to the fleet; 0 = one trial per round trip. Transport-only: job
	// results are byte-identical at any batch size.
	DispatchBatch int
	// TLSCert/TLSKey/TLSCA and AuthToken secure the fleet wire (mutual
	// TLS plus a shared bearer token, both fail-closed); they apply to
	// every job's dispatch. See docs/DISTRIBUTED.md.
	TLSCert, TLSKey, TLSCA string
	AuthToken              string
	// TransferDir, when non-empty, gives the farm a cross-workload
	// knowledge base (see docs/TRANSFER.md): jobs that set
	// TuneRequest.Transfer warm-start their search from it and record
	// their winners into it. Empty disables transfer for every job.
	TransferDir string
}

// DefaultConfig returns the default resource bounds.
func DefaultConfig() Config { return Config{MaxConcurrent: 4, MaxJobs: 256} }

// tuneFn runs one tuning session. It is a variable so tests can substitute
// slow, failing, or panicking implementations.
var tuneFn = hotspot.TuneContext

// Server is the HTTP front-end. Create with NewDurableServer; it
// implements http.Handler.
type Server struct {
	mux     *http.ServeMux
	cfg     Config
	queue   chan *Job
	workers sync.WaitGroup // the worker pool goroutines

	// reg holds the server-wide farm metrics served at /metrics; evTrace
	// records job lifecycle transitions.
	reg     *telemetry.Registry
	evTrace *telemetry.Tracer

	mu        sync.Mutex
	closed    bool
	crashed   bool // Crash() fired: suppress terminal journaling and checkpoint removal
	nextID    int
	jobs      map[int]*Job
	doneOrder []int          // terminal job IDs, oldest first — the LRU eviction order
	inflight  sync.WaitGroup // accepted jobs that have not reached a terminal state

	// stateDir and journal are the durability layer (see durable.go); both
	// are zero for an in-memory server. journal writes are guarded by mu.
	stateDir     string
	journal      *checkpoint.Journal
	compactBytes int64 // journal size that triggers compaction; ≤0 disables

	// admit and maxQueueDepth are the overload controls (see admission.go).
	admit         *admission
	maxQueueDepth int
}

// routes mounts the handler table. Every route is tagged with a priority
// class: "submit" creates work and passes through admission control,
// "control" observes or cancels work already accepted and is never shed —
// an overloaded farm must stay steerable.
func (s *Server) routes() {
	cfg := s.cfg
	handle := func(class, pattern string, h http.HandlerFunc) {
		counter := s.reg.Counter(`httpapi_requests_total{class="` + class + `"}`)
		s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			counter.Inc()
			h(w, r)
		})
	}
	handle("control", "GET /v1/benchmarks", s.handleBenchmarks)
	handle("control", "GET /v1/searchers", s.handleSearchers)
	handle("control", "GET /v1/scenarios", s.handleScenarios)
	handle("submit", "POST /v1/tune", s.handleTune)
	handle("control", "GET /v1/jobs", s.handleJobs)
	handle("control", "GET /v1/jobs/{id}", s.handleJob)
	handle("control", "GET /v1/jobs/{id}/trace", s.handleJobTrace)
	handle("control", "DELETE /v1/jobs/{id}", s.handleCancel)
	handle("submit", "POST /v1/measure", s.handleMeasure)
	handle("control", "GET /metrics", s.handleMetrics)
	handle("control", "GET /v1/trace", s.handleTrace)
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// noteJob records one job lifecycle transition. Every caller holds s.mu
// (or runs single-threaded recovery), so the trace keeps the order the
// transitions happened in.
func (s *Server) noteJob(id int, state string) {
	s.evTrace.Emit(telemetry.Event{Kind: "job", Trial: id, Detail: state})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Wait blocks until every accepted job has reached a terminal state — for
// tests and simple embedders.
func (s *Server) Wait() { s.inflight.Wait() }

// Shutdown gracefully stops the server: new submissions are rejected,
// queued and running jobs are given until ctx's deadline to finish, and
// once the deadline passes the remainder are canceled. On a durable server
// the deadline cancellations are interruptions, not verdicts — the journal
// keeps those jobs non-terminal and their checkpoints stay on disk, so a
// restarted server re-queues and resumes them. It returns ctx's error if
// the deadline forced cancellations, nil otherwise.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.queue)

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		s.workers.Wait()
		close(done)
	}()
	err := func() error {
		select {
		case <-done:
			return nil
		case <-ctx.Done():
			s.mu.Lock()
			for _, j := range s.jobs {
				switch {
				case j.State == "queued":
					j.requeue = s.journal != nil
					j.State, j.Error = "canceled", "server shutdown"
					s.jobTerminalLocked(j)
				case j.cancel != nil:
					j.requeue = s.journal != nil
					j.cancel()
				}
			}
			s.mu.Unlock()
			<-done
			return ctx.Err()
		}
	}()
	s.mu.Lock()
	journal := s.journal
	s.journal = nil
	s.mu.Unlock()
	_ = journal.Close()
	return err
}

// jobTerminalLocked records a job's arrival in a terminal state for LRU
// eviction, does the farm accounting (the per-verdict counter and the
// lifecycle trace event) and, on a durable server, journals the verdict,
// then releases the job's Wait ticket. A cancellation flagged as an
// interruption (shutdown deadline, simulated crash) is deliberately NOT
// journaled and keeps its checkpoint: the restarted server re-queues and
// resumes it. Caller holds s.mu; the job's State must already be terminal,
// and each job passes through exactly once.
func (s *Server) jobTerminalLocked(job *Job) {
	s.reg.Counter(`httpapi_jobs_total{state="` + job.State + `"}`).Inc()
	s.noteJob(job.ID, job.State)
	// The job joins doneOrder before its verdict is journaled: an append
	// that crosses the compaction threshold rewrites the journal from
	// doneOrder, and must keep the verdict that triggered it.
	s.doneOrder = append(s.doneOrder, job.ID)
	interrupted := s.crashed || (job.requeue && job.State == "canceled")
	if !interrupted {
		_ = s.appendJournal(journalRecord{
			Op: opDone, ID: job.ID, State: job.State, Error: job.Error, Result: job.Result,
		})
		s.removeJobCheckpoint(job.ID)
	}
	s.inflight.Done()
}

// evictLocked drops finished jobs, oldest first, until the store has room.
// Only terminal jobs are ever evicted: a queued or running job that lands
// on the done list by any path (or a stale id) is skipped, never dropped —
// evicting live state would strand its client and orphan its worker.
// Caller holds s.mu. Returns false if the store is still full — every job
// is queued or running.
func (s *Server) evictLocked() bool {
	keep := s.doneOrder[:0]
	for _, id := range s.doneOrder {
		job, ok := s.jobs[id]
		switch {
		case !ok:
			// Stale entry: the job is already gone from the store.
		case !job.terminal():
			keep = append(keep, id)
		case len(s.jobs) >= s.cfg.MaxJobs:
			delete(s.jobs, id)
			_ = s.appendJournal(journalRecord{Op: opEvict, ID: id})
			s.removeJobCheckpoint(id)
			s.reg.Counter("httpapi_jobs_evicted_total").Inc()
		default:
			keep = append(keep, id)
		}
	}
	s.doneOrder = keep
	return len(s.jobs) < s.cfg.MaxJobs
}

// runJob executes one tuning job: on a pool worker for async submissions,
// inline for ?sync=1.
func (s *Server) runJob(job *Job) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	s.mu.Lock()
	if job.State != "queued" {
		// Canceled (or evicted and canceled) while waiting in the queue.
		s.mu.Unlock()
		return
	}
	job.State = "running"
	job.cancel = cancel
	_ = s.appendJournal(journalRecord{Op: opState, ID: job.ID, State: "running"})
	s.reg.Gauge("httpapi_queue_depth").Set(float64(len(s.queue)))
	s.reg.Gauge("httpapi_jobs_running").Inc()
	s.noteJob(job.ID, "running")
	s.mu.Unlock()

	defer func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if r := recover(); r != nil {
			// A panicking searcher fails its job, never the server.
			job.State, job.Error = "failed", fmt.Sprintf("panic: %v", r)
		}
		job.cancel = nil
		s.reg.Gauge("httpapi_jobs_running").Dec()
		s.jobTerminalLocked(job)
	}()

	opts := s.options(job.Request)
	opts.Telemetry, opts.Trace = job.tel, job.trace
	opts.OnProgress = func(p hotspot.Progress) {
		s.mu.Lock()
		// Replace the pointer rather than mutating through it: job
		// snapshots taken for serialization stay consistent.
		job.Progress = &p
		s.mu.Unlock()
	}
	s.durableOptions(&opts, job.ID)
	res, err := tuneFn(ctx, opts)
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err != nil && ctx.Err() != nil:
		job.State, job.Error = "canceled", err.Error()
	case err != nil:
		job.State, job.Error = "failed", err.Error()
	default:
		job.State, job.Result = "done", res
	}
}

// options maps a tune request onto the session options the farm runs it
// with; handleTune checks them at submission and runJob adds the job's
// own telemetry, progress and checkpoint.
func (s *Server) options(req TuneRequest) hotspot.Options {
	opts := hotspot.Options{
		Benchmark:        req.Benchmark,
		Searcher:         req.Searcher,
		BudgetMinutes:    req.BudgetMinutes,
		Reps:             req.Reps,
		Seed:             req.Seed,
		Workers:          req.Workers,
		Chaos:            req.Chaos,
		RetryAttempts:    req.RetryAttempts,
		Hedge:            req.Hedge,
		Quarantine:       req.Quarantine,
		Drift:            req.Drift,
		DriftSensitivity: req.DriftSensitivity,
		Nodes:            s.cfg.Nodes,
		DispatchBatch:    s.cfg.DispatchBatch,
		TLSCert:          s.cfg.TLSCert,
		TLSKey:           s.cfg.TLSKey,
		TLSCA:            s.cfg.TLSCA,
		AuthToken:        s.cfg.AuthToken,
		Noise:            -1,
	}
	if req.Transfer && s.cfg.TransferDir != "" {
		opts.TransferDir = s.cfg.TransferDir
		opts.TransferK = req.TransferK
	}
	return opts
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, hotspot.Benchmarks())
}

func (s *Server) handleSearchers(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, hotspot.Searchers())
}

func (s *Server) handleScenarios(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, hotspot.ChaosScenarios())
}

func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	sync := r.URL.Query().Get("sync") == "1"
	// Admission runs before the body is even decoded: shedding is about
	// protecting the farm, and a farm drowning in submissions should not
	// spend cycles parsing the ones it is about to bounce. Synchronous
	// submissions occupy a worker inline, never a queue slot, so only the
	// rate limit applies to them.
	if !s.admitSubmission(w, r, !sync) {
		return
	}
	var req TuneRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Benchmark == "" {
		writeError(w, http.StatusBadRequest, "benchmark is required")
		return
	}
	// Validate cheaply before accepting the job.
	if err := hotspot.CheckOptions(s.options(req)); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.reg.Counter(`httpapi_shed_total{reason="shutdown"}`).Inc()
		writeShed(w, http.StatusServiceUnavailable, 1, "server is shutting down")
		return
	}
	if len(s.jobs) >= s.cfg.MaxJobs && !s.evictLocked() {
		n := len(s.jobs)
		s.mu.Unlock()
		s.reg.Counter(`httpapi_shed_total{reason="store-full"}`).Inc()
		writeShed(w, http.StatusServiceUnavailable, 1+n/s.cfg.MaxConcurrent,
			"job store full: %d jobs queued or running", n)
		return
	}
	job := &Job{
		ID: s.nextID, State: "queued", Request: req,
		tel:   telemetry.New(),
		trace: telemetry.NewTracer(0),
	}
	// Write-ahead: the submission reaches the journal before the job store,
	// so a job either durably exists or was never accepted. On append
	// failure the id is not consumed and the client is told to retry.
	if err := s.appendJournal(journalRecord{Op: opSubmit, ID: job.ID, Request: &req}); err != nil {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "journal append failed: %v", err)
		return
	}
	s.nextID++
	s.jobs[job.ID] = job
	s.inflight.Add(1)
	if !sync {
		select {
		case s.queue <- job:
		default:
			// Cannot happen while the store cap holds the queue below its
			// capacity, but never block a handler on a full channel.
			delete(s.jobs, job.ID)
			s.inflight.Done()
			s.mu.Unlock()
			s.reg.Counter(`httpapi_shed_total{reason="queue-full"}`).Inc()
			writeShed(w, http.StatusTooManyRequests, 1, "job queue full")
			return
		}
	}
	s.reg.Counter("httpapi_jobs_submitted_total").Inc()
	s.reg.Gauge("httpapi_queue_depth").Set(float64(len(s.queue)))
	s.noteJob(job.ID, "submitted")
	s.mu.Unlock()

	if sync {
		s.runJob(job)
		s.mu.Lock()
		snap := s.snapshotLocked(job)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, snap)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]int{"id": job.ID})
}

// snapshotLocked copies a job for serialization, attaching a point-in-time
// snapshot of its metric series. Caller holds s.mu.
func (s *Server) snapshotLocked(job *Job) Job {
	snap := *job
	if job.tel != nil {
		snap.Telemetry = job.tel.Snapshot()
	}
	return snap
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

// handleTrace serves the server's job-lifecycle trace as JSONL.
func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/jsonl")
	_ = s.evTrace.WriteJSONL(w)
}

// handleJobTrace serves a finished job's full event trace as JSONL. Running
// jobs conflict: exporting flushes the tracer's pending groups, which would
// corrupt the live session's event stream.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad job id")
		return
	}
	s.mu.Lock()
	job, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "no job %d", id)
		return
	}
	if !job.terminal() {
		state := job.State
		s.mu.Unlock()
		writeError(w, http.StatusConflict, "job %d is still %s; trace is available once it finishes", id, state)
		return
	}
	trace := job.trace
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/jsonl")
	// A ring that overflowed lost the session's first events: say how
	// many, without changing the trace's bytes.
	if d := trace.Dropped(); d > 0 {
		w.Header().Set("X-Trace-Dropped", strconv.Itoa(d))
	}
	_ = trace.WriteJSONL(w)
}

func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	out := make([]Job, 0, len(s.jobs))
	for id := 1; id < s.nextID; id++ {
		if j, ok := s.jobs[id]; ok {
			out = append(out, s.snapshotLocked(j))
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad job id")
		return
	}
	s.mu.Lock()
	job, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "no job %d", id)
		return
	}
	snap := s.snapshotLocked(job)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad job id")
		return
	}
	s.mu.Lock()
	job, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "no job %d", id)
		return
	}
	switch job.State {
	case "queued":
		// Not started: cancel immediately. The worker that eventually pops
		// it from the queue skips it.
		job.State, job.Error = "canceled", "canceled before start"
		s.jobTerminalLocked(job)
		snap := s.snapshotLocked(job)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, snap)
	case "running":
		cancel := job.cancel
		snap := s.snapshotLocked(job)
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		// Cancellation is asynchronous: the session stops at its next
		// evaluation round; poll the job until its state is "canceled".
		writeJSON(w, http.StatusAccepted, snap)
	default:
		state := job.State
		s.mu.Unlock()
		writeError(w, http.StatusConflict, "job %d already %s", id, state)
	}
}

func (s *Server) handleMeasure(w http.ResponseWriter, r *http.Request) {
	// Measurements are submission-class work (they burn simulator CPU) but
	// run inline, so only the per-client rate limit applies.
	if !s.admitSubmission(w, r, false) {
		return
	}
	var req MeasureRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	wall, err := hotspot.Measure(req.Args, req.Benchmark, req.Rep)
	if err != nil {
		status := http.StatusBadRequest
		var unknown *flags.UnknownFlagError
		switch {
		case errors.As(err, &unknown):
			// A flag name the registry does not define is a malformed
			// submission, full stop — the typed error guarantees the worker
			// rejected it instead of panicking partway into a run.
			status = http.StatusBadRequest
		case strings.Contains(err.Error(), "run failed"):
			// The flag combination parsed but the VM failed: that is a
			// legitimate measurement outcome, not a malformed request.
			status = http.StatusUnprocessableEntity
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, MeasureResponse{WallSeconds: wall})
}
