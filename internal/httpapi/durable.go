// Farm durability: a write-ahead journal makes the job store survive
// process death.
//
// With Config.StateDir set, every job lifecycle transition — submission,
// start, terminal verdict, eviction — is appended to a CRC-framed journal
// (internal/checkpoint) before it takes effect, and each running job
// checkpoints its session to its own file in the state directory. On
// restart the journal is replayed: terminal jobs come back with their
// results servable from disk, interrupted jobs are re-queued and resume
// from their latest checkpoint, and a torn journal tail (the record being
// written when the process died) is salvaged by truncation. The journal
// head is strict: a corrupt header or a future format version refuses to
// start rather than silently dropping history.
//
// The journal does not grow without bound: once it passes
// Config.JournalCompactBytes it is atomically rewritten (temp file +
// rename) as the minimal stream reproducing the live store — see
// compactJournalLocked. A crash at any instant during compaction leaves
// either the complete old journal or the complete new one.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"

	"repro/hotspot"
	"repro/internal/checkpoint"
	"repro/internal/telemetry"
)

// Journal record operations. The journal is the farm's source of truth:
// a job's state on restart is whatever its most recent record says.
const (
	opSubmit = "submit" // job accepted; Request is the full submission
	opState  = "state"  // non-terminal transition (queued → running)
	opDone   = "done"   // terminal verdict; State/Error/Result are final
	opEvict  = "evict"  // terminal job dropped from the store
	// opNext advances the job-id watermark without a submission. Compaction
	// writes it as the final record: evicted jobs vanish from the compacted
	// stream, and without the watermark a restart would hand their ids out
	// again — tripping the submit-reuses-id validation on the NEXT restart.
	opNext = "next" // ID is the next id to assign
)

// journalRecord is one journaled lifecycle transition, stored as JSON
// inside a CRC-framed record.
type journalRecord struct {
	Op      string          `json:"op"`
	ID      int             `json:"id"`
	Request *TuneRequest    `json:"request,omitempty"`
	State   string          `json:"state,omitempty"`
	Error   string          `json:"error,omitempty"`
	Result  *hotspot.Result `json:"result,omitempty"`
}

// NewDurableServer builds a ready-to-serve handler with the given bounds
// and starts its worker pool. With cfg.StateDir set the server is durable:
// it replays the state directory's journal — serving finished results from
// disk and re-queuing interrupted jobs from their checkpoints — before
// accepting new work. The error is non-nil only when recovery fails; an
// empty StateDir never fails.
func NewDurableServer(cfg Config) (*Server, error) {
	if cfg.MaxConcurrent < 1 {
		cfg.MaxConcurrent = DefaultConfig().MaxConcurrent
	}
	if cfg.MaxJobs < 1 {
		cfg.MaxJobs = DefaultConfig().MaxJobs
	}
	s := &Server{
		mux:      http.NewServeMux(),
		cfg:      cfg,
		stateDir: cfg.StateDir,
		queue:    make(chan *Job, cfg.MaxJobs),
		jobs:     map[int]*Job{},
		nextID:   1,
		reg:      telemetry.New(),
		evTrace:  telemetry.NewTracer(4 * cfg.MaxJobs),
	}
	switch {
	case cfg.MaxQueueDepth > 0 && cfg.MaxQueueDepth <= cfg.MaxJobs:
		s.maxQueueDepth = cfg.MaxQueueDepth
	case cfg.MaxQueueDepth == 0 || cfg.MaxQueueDepth > cfg.MaxJobs:
		s.maxQueueDepth = cfg.MaxJobs // the queue's physical capacity
	}
	if cfg.ClientRatePerSec > 0 {
		s.admit = newAdmission(cfg.ClientRatePerSec, cfg.ClientBurst, nil)
	}
	switch {
	case cfg.JournalCompactBytes > 0:
		s.compactBytes = cfg.JournalCompactBytes
	case cfg.JournalCompactBytes == 0:
		s.compactBytes = DefaultJournalCompactBytes
	}
	s.routes()
	s.reg.Gauge("httpapi_workers").Set(float64(cfg.MaxConcurrent))

	// The worker pool starts after journal replay, so no job runs
	// mid-replay.
	if s.stateDir != "" {
		if err := s.recover(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.MaxConcurrent; i++ {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			for job := range s.queue {
				s.runJob(job)
			}
		}()
	}
	return s, nil
}

// recover opens the state directory's journal, replays it into the job
// store, and re-queues every job the previous process left unfinished.
func (s *Server) recover() error {
	if err := os.MkdirAll(s.stateDir, 0o755); err != nil {
		return fmt.Errorf("httpapi: state dir: %w", err)
	}
	journal, records, err := checkpoint.OpenJournal(filepath.Join(s.stateDir, "farm.journal"), checkpoint.JournalKind, s.reg)
	if err != nil {
		return fmt.Errorf("httpapi: journal: %w", err)
	}
	s.journal = journal
	for i, raw := range records {
		var rec journalRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return fmt.Errorf("httpapi: journal record %d: %v: %w", i, err, checkpoint.ErrCorrupt)
		}
		if err := s.applyRecord(i, rec); err != nil {
			return err
		}
	}
	s.requeueRecovered()
	return nil
}

// applyRecord folds one replayed journal record into the job store. Records
// are trusted to be framing-valid (the CRC held); their contents are still
// validated, because a record that frames cleanly but makes no sense means
// the journal was written by broken software — fail closed.
func (s *Server) applyRecord(i int, rec journalRecord) error {
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("httpapi: journal record %d: %s: %w", i, fmt.Sprintf(format, args...), checkpoint.ErrCorrupt)
	}
	switch rec.Op {
	case opSubmit:
		if rec.ID <= 0 || rec.Request == nil {
			return corrupt("submit without id or request")
		}
		if _, dup := s.jobs[rec.ID]; dup || rec.ID < s.nextID {
			return corrupt("submit reuses job id %d", rec.ID)
		}
		s.jobs[rec.ID] = &Job{
			ID: rec.ID, State: "queued", Request: *rec.Request,
			tel:   telemetry.New(),
			trace: telemetry.NewTracer(0),
		}
		s.nextID = rec.ID + 1
	case opState:
		if rec.State != "queued" && rec.State != "running" {
			return corrupt("state record carries terminal state %q", rec.State)
		}
		job, ok := s.jobs[rec.ID]
		if !ok {
			return corrupt("state for unknown job %d", rec.ID)
		}
		if !job.terminal() {
			job.State = rec.State
		}
	case opDone:
		job, ok := s.jobs[rec.ID]
		if !ok {
			return corrupt("verdict for unknown job %d", rec.ID)
		}
		if job.terminal() {
			return corrupt("second verdict for job %d", rec.ID)
		}
		job.State, job.Error, job.Result = rec.State, rec.Error, rec.Result
		if !job.terminal() {
			return corrupt("verdict %q is not terminal", rec.State)
		}
		s.doneOrder = append(s.doneOrder, rec.ID)
	case opEvict:
		if _, ok := s.jobs[rec.ID]; !ok {
			return corrupt("evict of unknown job %d", rec.ID)
		}
		delete(s.jobs, rec.ID)
		keep := s.doneOrder[:0]
		for _, id := range s.doneOrder {
			if id != rec.ID {
				keep = append(keep, id)
			}
		}
		s.doneOrder = keep
	case opNext:
		if rec.ID < s.nextID {
			return corrupt("id watermark %d behind next id %d", rec.ID, s.nextID)
		}
		s.nextID = rec.ID
	default:
		return corrupt("unknown op %q", rec.Op)
	}
	return nil
}

// requeueRecovered puts every replayed non-terminal job back on the queue,
// oldest first. A job the previous process had already started resumes
// from its checkpoint; one still queued starts from scratch. If the queue
// cannot hold them all (the store was configured smaller than it was), the
// overflow is canceled with an explanatory error rather than dropped.
func (s *Server) requeueRecovered() {
	for id := 1; id < s.nextID; id++ {
		job, ok := s.jobs[id]
		if !ok || job.terminal() {
			continue
		}
		s.reg.Counter("httpapi_jobs_recovered_total").Inc()
		job.State = "queued"
		s.inflight.Add(1)
		select {
		case s.queue <- job:
			s.reg.Counter("httpapi_jobs_requeued_total").Inc()
			s.noteJob(job.ID, "requeued")
		default:
			job.State = "canceled"
			job.Error = "recovered but not requeued: job queue full"
			s.jobTerminalLocked(job) // journals the verdict, releases the ticket
		}
	}
	s.reg.Gauge("httpapi_queue_depth").Set(float64(len(s.queue)))
}

// DefaultJournalCompactBytes is the journal size that triggers compaction
// when Config.JournalCompactBytes is zero.
const DefaultJournalCompactBytes = 1 << 20

// appendJournal writes one lifecycle record ahead of the transition it
// describes. Callers that can refuse the transition (submission) propagate
// the error; the rest count it — a full disk must not strand a finished
// job in limbo. Caller holds s.mu; without a state dir this is a no-op.
//
// A successful append that pushes the journal past the compaction
// threshold rewrites it in place before returning: the caller's record is
// already durable either way (it is part of the state the compacted stream
// reproduces), and doing it here keeps the trigger on the only path that
// grows the file.
func (s *Server) appendJournal(rec journalRecord) error {
	if s.journal == nil {
		return nil
	}
	b, err := json.Marshal(rec)
	if err == nil {
		err = s.journal.Append(b)
	}
	if err != nil {
		s.reg.Counter("httpapi_journal_errors_total").Inc()
		return err
	}
	if s.compactBytes > 0 && s.journal.Size() >= s.compactBytes {
		s.compactJournalLocked()
	}
	return nil
}

// compactJournalLocked atomically rewrites the farm journal as the minimal
// record stream reproducing the live store: one submission per stored job
// in id order, a running-state record for jobs mid-flight, terminal
// verdicts in eviction (doneOrder) order, and a trailing id watermark so
// ids of evicted-and-forgotten jobs are never reused. Jobs whose
// cancellation was an interruption (requeue flag) keep their verdict out
// of the compacted stream for the same reason jobTerminalLocked keeps it
// out of the append stream: a restart should resume them.
//
// Failure is not fatal — the uncompacted journal remains authoritative and
// the error counter ticks. Caller holds s.mu.
func (s *Server) compactJournalLocked() {
	var payloads [][]byte
	fail := func() {
		s.reg.Counter("httpapi_journal_errors_total").Inc()
	}
	add := func(rec journalRecord) bool {
		b, err := json.Marshal(rec)
		if err != nil {
			fail()
			return false
		}
		payloads = append(payloads, b)
		return true
	}
	for id := 1; id < s.nextID; id++ {
		job, ok := s.jobs[id]
		if !ok {
			continue
		}
		req := job.Request
		if !add(journalRecord{Op: opSubmit, ID: id, Request: &req}) {
			return
		}
		if job.State == "running" {
			if !add(journalRecord{Op: opState, ID: id, State: "running"}) {
				return
			}
		}
	}
	for _, id := range s.doneOrder {
		job, ok := s.jobs[id]
		if !ok || !job.terminal() {
			continue
		}
		if s.crashed || (job.requeue && job.State == "canceled") {
			continue // interruption, not a verdict — restart resumes it
		}
		if !add(journalRecord{Op: opDone, ID: id, State: job.State, Error: job.Error, Result: job.Result}) {
			return
		}
	}
	if !add(journalRecord{Op: opNext, ID: s.nextID}) {
		return
	}
	if err := s.journal.Rewrite(payloads); err != nil {
		fail()
		return
	}
	s.reg.Counter("journal_compactions_total").Inc()
	s.reg.Counter("httpapi_journal_compacted_records_total").Add(uint64(len(payloads)))
}

// jobCheckpointPath is where a job's tuning session snapshots itself.
func (s *Server) jobCheckpointPath(id int) string {
	return filepath.Join(s.stateDir, fmt.Sprintf("job-%d.ckpt", id))
}

// removeJobCheckpoint discards a job's session checkpoint; once the job is
// terminal (or evicted) the snapshot has nothing left to resume.
func (s *Server) removeJobCheckpoint(id int) {
	if s.stateDir == "" {
		return
	}
	_ = os.Remove(s.jobCheckpointPath(id))
	_ = os.Remove(s.jobCheckpointPath(id) + ".fleet")
}

// durableOptions attaches checkpoint/resume wiring to a job's session
// options. The corrupt-checkpoint pre-flight keeps one bad file from
// wedging its job forever: fail the snapshot, not the job.
func (s *Server) durableOptions(opts *hotspot.Options, id int) {
	if s.stateDir == "" {
		return
	}
	path := s.jobCheckpointPath(id)
	if _, err := checkpoint.Load(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		_ = os.Remove(path)
		s.reg.Counter("httpapi_job_checkpoints_discarded_total").Inc()
	}
	opts.CheckpointPath = path
	opts.CheckpointEveryTrials = s.cfg.CheckpointEveryTrials
	opts.Resume = true
	if len(s.cfg.Nodes) > 0 {
		// A distributed durable job keeps its fleet view next to its
		// checkpoint, recovered on the same resume path.
		opts.FleetStatePath = path + ".fleet"
	}
}

// Crash simulates the process dying mid-flight — kill -9, not a graceful
// shutdown. Nothing further is journaled (the real syscall would never
// happen), running jobs are cut off, and job checkpoints stay on disk
// exactly as the keeper last left them. A test facility: what a restarted
// server recovers after Crash is what it would recover after a power cut,
// minus the torn tail (exercised separately by corrupting the file).
func (s *Server) Crash() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.crashed = true
	journal := s.journal
	s.journal = nil
	for _, job := range s.jobs {
		switch {
		case job.State == "queued":
			job.State, job.Error = "canceled", "server crash"
			s.jobTerminalLocked(job)
		case job.cancel != nil:
			job.cancel()
		}
	}
	s.mu.Unlock()
	_ = journal.Close()
	close(s.queue)
	s.inflight.Wait()
	s.workers.Wait()
}
