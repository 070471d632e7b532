// Command evald is a measurement node of the distributed evaluation
// plane: a thin, stateless HTTP server that evaluates flag configurations
// on demand for a tuning controller (autotune -nodes / tuned -nodes).
//
// Usage:
//
//	evald [-addr :8426] [-node NAME] [-max-concurrent N]
//	      [-join CONTROLLER -advertise HOST:PORT]
//	      [-tls-cert F -tls-key F -tls-ca F] [-auth-token T]
//
// One POST /v1/evaluate-batch round trip carries 1 to
// dispatch.MaxBatchTrials evaluation attempts (a single attempt is a
// batch of one); GET /healthz answers the controller's heartbeats and GET
// /metrics serves the node's telemetry in Prometheus text format. A measurement is a pure function
// of the request, so nodes are interchangeable and a killed node costs
// the controller nothing but a re-dispatch. Excess load is shed with
// 429 + Retry-After once -max-concurrent evaluations are in flight.
//
// With -join the node registers itself with the controller's fleet
// endpoint and re-registers periodically as its liveness lease; on
// SIGTERM it deregisters first — so the controller re-dispatches the
// remainder immediately instead of waiting out a heartbeat timeout —
// then finishes in-flight trials within -grace before exiting.
//
// -tls-cert/-tls-key/-tls-ca enable mutual TLS (the CA verifies the
// controller, the controller's CA must have signed this cert), and
// -auth-token is demanded on every evaluate request; both fail closed.
//
// See docs/DISTRIBUTED.md for the protocol and determinism contract.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/dispatch"
	"repro/internal/evald"
)

func main() {
	var (
		addr          = flag.String("addr", ":8426", "listen address")
		node          = flag.String("node", "", "node name reported in results and /healthz (default: the listen address)")
		maxConcurrent = flag.Int("max-concurrent", 0, "in-flight evaluations before shedding with 429 (0 = GOMAXPROCS)")
		grace         = flag.Duration("grace", 5*time.Second, "shutdown grace period for in-flight evaluations")
		join          = flag.String("join", "", "controller fleet endpoint to register with (host:port or URL)")
		advertise     = flag.String("advertise", "", "address controllers dial to reach this node (required with -join)")
		joinEvery     = flag.Duration("join-interval", 5*time.Second, fmt.Sprintf("re-registration period, at most %s; the node asks the controller for a lease of 3x this", dispatch.MaxJoinInterval))
		tlsCert       = flag.String("tls-cert", "", "PEM certificate presented to peers (enables TLS serving)")
		tlsKey        = flag.String("tls-key", "", "PEM key for -tls-cert")
		tlsCA         = flag.String("tls-ca", "", "PEM CA bundle peers must chain to (demands client certificates)")
		authToken     = flag.String("auth-token", "", "shared bearer token demanded on evaluate requests")
	)
	flag.Parse()

	sec := &dispatch.Security{CertFile: *tlsCert, KeyFile: *tlsKey, CAFile: *tlsCA, Token: *authToken}
	name := *node
	if name == "" {
		name = *addr
	}
	// With -join, the node announces itself to the controller once it
	// serves and keeps the lease alive until drain. A joiner no controller
	// would admit is a startup error, not a retry loop.
	var joiner *dispatch.Joiner
	if *join != "" {
		if *advertise == "" {
			log.Fatal("evald: -join requires -advertise (the address controllers dial)")
		}
		joiner = &dispatch.Joiner{
			Controller: *join, Advertise: *advertise, Node: *node,
			Interval: *joinEvery, Sec: sec,
		}
		if err := joiner.Validate(); err != nil {
			log.Fatalf("evald: %v", err)
		}
	}
	srv := &http.Server{Addr: *addr, Handler: evald.New(evald.Config{
		Node:          name,
		MaxConcurrent: *maxConcurrent,
		Auth:          sec,
	})}
	tcfg, err := sec.ServerTLS()
	if err != nil {
		log.Fatalf("evald: %v", err)
	}
	srv.TLSConfig = tcfg

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	errc := make(chan error, 1)
	go func() {
		if tcfg != nil {
			// Cert and key live in TLSConfig already.
			errc <- srv.ListenAndServeTLS("", "")
			return
		}
		errc <- srv.ListenAndServe()
	}()
	fmt.Printf("evald: node %q serving measurements on %s\n", name, *addr)

	joinCtx, stopJoining := context.WithCancel(context.Background())
	defer stopJoining()
	if joiner != nil {
		if err := joiner.Register(joinCtx); err != nil {
			// Not fatal: the controller may come up after us; Run keeps
			// trying on every tick.
			log.Printf("evald: initial registration: %v", err)
		} else {
			fmt.Printf("evald: joined fleet at %s as %q\n", *join, joiner.Advertise)
		}
		go joiner.Run(joinCtx)
	}

	select {
	case err := <-errc:
		log.Fatal(err)
	case sig := <-stop:
		fmt.Printf("evald: %v — draining (grace %s)\n", sig, *grace)
		// Deregister before shutting down: the controller stops placing new
		// trials here immediately and re-dispatches anything we don't
		// finish, instead of discovering the gap via heartbeat timeout.
		stopJoining()
		if joiner != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := joiner.Deregister(ctx); err != nil {
				log.Printf("evald: deregister: %v", err)
			} else {
				fmt.Println("evald: deregistered from fleet")
			}
			cancel()
		}
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("evald: http shutdown: %v", err)
		}
	}
}
