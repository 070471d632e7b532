// Command tuned serves the auto-tuner over HTTP: a tuning-farm front-end
// where clients submit budgeted jobs and poll for winning flag sets.
//
// Usage:
//
//	tuned [-addr :8425] [-max-concurrent 4] [-max-jobs 256] [-pprof]
//	      [-state-dir DIR] [-checkpoint-every N] [-journal-compact-bytes N]
//	      [-queue-depth N] [-client-rate R] [-client-burst B]
//	      [-nodes host:port,host:port] [-batch N]
//	      [-tls-cert F -tls-key F -tls-ca F] [-auth-token T]
//	      [-transfer-dir DIR]
//
// With -nodes, tuned is a control plane: every session's measurements are
// dispatched to that fleet of evald worker nodes over HTTP/JSON instead of
// running in-process, with work-stealing, heartbeats, and node-death
// re-dispatch — and byte-identical fixed-seed results either way. -batch
// ships up to N trials per evaluate-batch round trip (transport-only;
// results are byte-identical at any batch size), and the TLS/auth flags
// secure the fleet wire with mutual TLS plus a shared bearer token, both
// fail-closed. See docs/DISTRIBUTED.md.
//
// Under overload the farm sheds load explicitly instead of queueing without
// bound: async submissions bounce with 429 + Retry-After once -queue-depth
// jobs are waiting, and with -client-rate set each client (keyed by its
// X-Client header) gets a token bucket of R submissions per second with
// burst B. Polls and cancels are never shed — an overloaded farm stays
// steerable. See docs/OVERLOAD.md.
//
// GET /metrics serves farm metrics (queue depth, running sessions, job
// verdicts, plus each job's runner/session series in its poll responses) in
// Prometheus text format. -pprof additionally mounts the net/http/pprof
// profiling handlers under /debug/pprof/ — off by default, since profiling
// endpoints expose internals.
//
// Example session:
//
//	curl localhost:8425/v1/benchmarks
//	curl -X POST localhost:8425/v1/tune \
//	     -d '{"benchmark":"h2","budget_minutes":200}'
//	curl localhost:8425/v1/jobs/1              # poll progress and result
//	curl -X DELETE localhost:8425/v1/jobs/1    # cancel
//	curl -X POST localhost:8425/v1/measure \
//	     -d '{"benchmark":"h2","args":["-Xmx4g","-XX:+UseG1GC"]}'
//
// Jobs can opt into the deterministic fault-injection layer with the
// "chaos" option — a named scenario (GET /v1/scenarios) or a fault-plan DSL
// spec — plus "retry_attempts" to bound transient-failure retries; polls
// then report flake counts alongside progress:
//
//	curl -X POST localhost:8425/v1/tune \
//	     -d '{"benchmark":"h2","chaos":"unstable-farm","retry_attempts":4}'
//
// -transfer-dir gives the farm a cross-workload knowledge base (see
// docs/TRANSFER.md): jobs submitted with "transfer":true warm-start their
// search from the best stored configurations of the nearest workload
// fingerprints and record their winners back for later jobs; polls carry
// the warm-start provenance in result.transfer:
//
//	curl -X POST localhost:8425/v1/tune \
//	     -d '{"benchmark":"h2","transfer":true}'
//
// At most -max-concurrent tuning sessions run at once; further jobs queue.
// The job store keeps at most -max-jobs entries, evicting the oldest
// finished jobs first. SIGINT/SIGTERM trigger a graceful shutdown: running
// jobs get a grace period to finish, then are canceled.
//
// -state-dir makes the farm durable: submissions, transitions, and results
// are journaled there ahead of taking effect, and running jobs checkpoint
// their sessions (every -checkpoint-every trials). A restarted tuned
// replays the journal — finished results are served from disk, and jobs
// the dead process left queued or running are re-run, resuming mid-search
// from their checkpoints. See docs/DURABILITY.md for the recovery
// guarantees.
//
// See internal/httpapi for the full route list.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/httpapi"
)

func main() {
	var (
		addr          = flag.String("addr", ":8425", "listen address")
		maxConcurrent = flag.Int("max-concurrent", httpapi.DefaultConfig().MaxConcurrent, "tuning sessions run simultaneously")
		maxJobs       = flag.Int("max-jobs", httpapi.DefaultConfig().MaxJobs, "job store capacity (oldest finished jobs evicted first)")
		grace         = flag.Duration("grace", 30*time.Second, "shutdown grace period before running jobs are canceled")
		pprofOn       = flag.Bool("pprof", false, "serve net/http/pprof profiling handlers under /debug/pprof/")
		stateDir      = flag.String("state-dir", "", "journal jobs and checkpoint sessions here; a restart recovers them")
		ckptEvery     = flag.Int("checkpoint-every", 0, "per-job checkpoint cadence in trials with -state-dir (0 = default 8)")
		compactBytes  = flag.Int64("journal-compact-bytes", 0, "compact the farm journal past this size (0 = default 1 MiB, negative = never)")
		queueDepth    = flag.Int("queue-depth", 0, "shed async submissions with 429 once this many jobs wait (0 = max-jobs, negative = unbounded)")
		clientRate    = flag.Float64("client-rate", 0, "per-client submissions per second, keyed by X-Client (0 = unlimited)")
		clientBurst   = flag.Int("client-burst", 0, "per-client token-bucket burst (0 = max(1, ceil(client-rate)))")
		nodes         = flag.String("nodes", "", "comma-separated evald nodes (host:port); run sessions against this fleet instead of in-process")
		batch         = flag.Int("batch", 0, "trials per evaluate-batch round trip to the fleet (0 = one trial per round trip)")
		tlsCert       = flag.String("tls-cert", "", "PEM certificate presented to fleet peers (mutual TLS)")
		tlsKey        = flag.String("tls-key", "", "PEM key for -tls-cert")
		tlsCA         = flag.String("tls-ca", "", "PEM CA bundle fleet peers must chain to")
		token         = flag.String("auth-token", "", "shared bearer token stamped on fleet requests")
		transferDir   = flag.String("transfer-dir", "", "cross-workload knowledge-base directory; jobs with \"transfer\":true warm-start from it and record winners into it")
	)
	flag.Parse()

	var nodeList []string
	if *nodes != "" {
		nodeList = strings.Split(*nodes, ",")
	}

	api, err := httpapi.NewDurableServer(httpapi.Config{
		MaxConcurrent:         *maxConcurrent,
		MaxJobs:               *maxJobs,
		EnablePprof:           *pprofOn,
		StateDir:              *stateDir,
		CheckpointEveryTrials: *ckptEvery,
		JournalCompactBytes:   *compactBytes,
		MaxQueueDepth:         *queueDepth,
		ClientRatePerSec:      *clientRate,
		ClientBurst:           *clientBurst,
		Nodes:                 nodeList,
		DispatchBatch:         *batch,
		TLSCert:               *tlsCert,
		TLSKey:                *tlsKey,
		TLSCA:                 *tlsCA,
		AuthToken:             *token,
		TransferDir:           *transferDir,
	})
	if err != nil {
		log.Fatalf("tuned: recovery failed: %v", err)
	}
	srv := &http.Server{Addr: *addr, Handler: api}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("tuned: serving the HotSpot auto-tuner on %s (max %d concurrent sessions, %d stored jobs)\n",
		*addr, *maxConcurrent, *maxJobs)
	if *stateDir != "" {
		fmt.Printf("tuned: durable farm state in %s (journal + per-job checkpoints)\n", *stateDir)
	}
	if *transferDir != "" {
		fmt.Printf("tuned: cross-workload knowledge base in %s (jobs opt in with \"transfer\":true)\n", *transferDir)
	}
	fmt.Printf("tuned: metrics at /metrics")
	if *pprofOn {
		fmt.Printf(", profiling at /debug/pprof/")
	}
	fmt.Println()

	select {
	case err := <-errc:
		log.Fatal(err)
	case sig := <-stop:
		fmt.Printf("tuned: %v — draining (grace %s)\n", sig, *grace)
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("tuned: http shutdown: %v", err)
		}
		if err := api.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("tuned: job shutdown: %v", err)
		}
		// api.Shutdown drains the telemetry collector before returning: every
		// job lifecycle event accepted so far is committed to the trace.
		fmt.Println("tuned: drained; telemetry flushed")
	}
}
