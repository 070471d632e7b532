// Wire-security regression suite: mutual TLS and the shared bearer token
// must both fail closed. An unauthenticated or wrong-CA peer gets a
// handshake failure or a 401 envelope — never an evaluation, never a
// registration — and a single misconfigured node quarantines without
// condemning the trials it refused.
package dispatch_test

import (
	"context"
	"crypto/tls"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/dispatch/dispatchtest"
	"repro/internal/evald"
	"repro/internal/flags"
	"repro/internal/runner"
)

// trialReq is a minimal valid evaluate payload for the "fop" profile's
// default configuration.
func trialReq() *dispatch.TrialRequest {
	return &dispatch.TrialRequest{Benchmark: "fop", Reps: 1, Noise: -1}
}

// startMTLSEvald serves a real evald node behind the Security config's
// TLS material and returns its host:port.
func startMTLSEvald(t *testing.T, sec *dispatch.Security, cfg evald.Config) string {
	t.Helper()
	tcfg, err := sec.ServerTLS()
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: evald.New(cfg)}
	go srv.Serve(tls.NewListener(ln, tcfg))
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestMTLSFailClosed: an evald node demanding client certificates serves
// peers from its own CA's trust domain and rejects everyone else at the
// handshake — no credentials, no evaluation, fail-closed.
func TestMTLSFailClosed(t *testing.T) {
	dir := t.TempDir()
	ca, err := dispatchtest.NewCA(dir, "fleet-ca")
	if err != nil {
		t.Fatal(err)
	}
	srvCert, srvKey, err := ca.Issue(dir, "node")
	if err != nil {
		t.Fatal(err)
	}
	cliCert, cliKey, err := ca.Issue(dir, "controller")
	if err != nil {
		t.Fatal(err)
	}
	rogueCA, err := dispatchtest.NewCA(dir, "rogue-ca")
	if err != nil {
		t.Fatal(err)
	}
	rogueCert, rogueKey, err := rogueCA.Issue(dir, "intruder")
	if err != nil {
		t.Fatal(err)
	}

	addr := startMTLSEvald(t, &dispatch.Security{CertFile: srvCert, KeyFile: srvKey, CAFile: ca.File},
		evald.Config{Node: "sec0"})

	// The right credentials evaluate.
	good, err := dispatch.NewSecureRemote(addr, &dispatch.Security{
		CertFile: cliCert, KeyFile: cliKey, CAFile: ca.File,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := good.Evaluate(context.Background(), trialReq())
	if err != nil {
		t.Fatalf("trusted peer should evaluate: %v", err)
	}
	if res.Measurement.Failed {
		t.Fatalf("measurement failed: %+v", res.Measurement)
	}

	// No client certificate: the server's RequireAndVerifyClientCert kills
	// the handshake.
	anon, err := dispatch.NewSecureRemote(addr, &dispatch.Security{CAFile: ca.File})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := anon.Evaluate(context.Background(), trialReq()); err == nil {
		t.Fatal("peer without a client certificate must be rejected")
	} else if permanentNodeError(err) {
		t.Fatalf("a handshake failure is a transport fault, not a trial verdict: %v", err)
	}

	// A certificate from outside the CA's trust domain: same fate.
	intruder, err := dispatch.NewSecureRemote(addr, &dispatch.Security{
		CertFile: rogueCert, KeyFile: rogueKey, CAFile: ca.File,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := intruder.Evaluate(context.Background(), trialReq()); err == nil {
		t.Fatal("wrong-CA peer must be rejected")
	}

	// And the inverse: a client verifying against the rogue CA refuses the
	// legitimate server — trust is mutual.
	doubter, err := dispatch.NewSecureRemote(addr, &dispatch.Security{
		CertFile: cliCert, KeyFile: cliKey, CAFile: rogueCA.File,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doubter.Evaluate(context.Background(), trialReq()); err == nil {
		t.Fatal("client must refuse a server outside its own CA's trust domain")
	}
}

// TestBearerTokenFailClosed: an evald node with a token demands it on
// every evaluate request; a missing or wrong token is a 401
// CodeUnauthorized envelope and nothing is evaluated.
func TestBearerTokenFailClosed(t *testing.T) {
	ts := httptest.NewServer(evald.New(evald.Config{
		Node: "tok0", Auth: &dispatch.Security{Token: "hunter2"},
	}))
	defer ts.Close()
	addr := ts.Listener.Addr().String()

	for name, sec := range map[string]*dispatch.Security{
		"no token":    {},
		"wrong token": {Token: "hunter3"},
	} {
		rem, err := dispatch.NewSecureRemote(addr, sec)
		if err != nil {
			t.Fatal(err)
		}
		_, err = rem.Evaluate(context.Background(), trialReq())
		var ne *dispatch.NodeError
		if !errors.As(err, &ne) {
			t.Fatalf("%s: want NodeError, got %v", name, err)
		}
		if ne.Status != http.StatusUnauthorized || ne.Code != dispatch.CodeUnauthorized {
			t.Fatalf("%s: want 401 %s, got %+v", name, dispatch.CodeUnauthorized, ne)
		}
		if ne.Permanent {
			t.Fatalf("%s: a credential mismatch is a node-pairing fault, not a trial verdict", name)
		}
	}

	good, err := dispatch.NewSecureRemote(addr, &dispatch.Security{Token: "hunter2"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := good.Evaluate(context.Background(), trialReq()); err != nil {
		t.Fatalf("matching token should evaluate: %v", err)
	}
}

// TestPool401QuarantinesWithoutCondemning: one node of the fleet has the
// wrong token. Its 401s must not condemn trials (another node's matching
// credentials can still serve them) — the trial lands elsewhere and the
// misconfigured node takes breaker strikes like any sick node.
func TestPool401QuarantinesWithoutCondemning(t *testing.T) {
	token := &dispatch.Security{Token: "right"}
	ts := httptest.NewServer(evald.New(evald.Config{Node: "authed", Auth: token}))
	defer ts.Close()
	addr := ts.Listener.Addr().String()

	misconfigured, err := dispatch.NewSecureRemote(addr, &dispatch.Security{Token: "wrong"})
	if err != nil {
		t.Fatal(err)
	}
	misconfigured.NodeName = "misconfigured"
	authed, err := dispatch.NewSecureRemote(addr, token)
	if err != nil {
		t.Fatal(err)
	}

	pool, err := dispatch.NewPool(profileOf(t, "fop"), misconfigured, authed)
	if err != nil {
		t.Fatal(err)
	}
	m := pool.Measure(flags.NewConfig(flags.NewRegistry()), 1)
	if m.Failed {
		t.Fatalf("trial should re-dispatch past the misconfigured node: %+v", m)
	}
	if m.Failure == runner.NodeRejectedFailure {
		t.Fatal("a 401 must never condemn the trial as node-rejected")
	}
}

// TestRemoteHonorsRetryAfter: the Retry-After of a 429 shed response —
// header or envelope field — surfaces on the NodeError so the pool can
// floor the node's cooldown with it.
func TestRemoteHonorsRetryAfter(t *testing.T) {
	cases := []struct {
		name    string
		handler http.HandlerFunc
		want    time.Duration
	}{
		{"header", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "7")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"evald: node saturated","code":"busy"}`))
		}, 7 * time.Second},
		{"envelope", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"evald: node saturated","code":"busy","retry_after_seconds":3}`))
		}, 3 * time.Second},
		{"none", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"evald: node saturated","code":"busy"}`))
		}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(tc.handler)
			defer ts.Close()
			rem, err := dispatch.NewSecureRemote(ts.Listener.Addr().String(), nil)
			if err != nil {
				t.Fatal(err)
			}
			_, err = rem.Evaluate(context.Background(), trialReq())
			var ne *dispatch.NodeError
			if !errors.As(err, &ne) {
				t.Fatalf("want NodeError, got %v", err)
			}
			if ne.Permanent {
				t.Fatal("shed load is transient")
			}
			if ne.RetryAfter != tc.want {
				t.Fatalf("RetryAfter = %v, want %v", ne.RetryAfter, tc.want)
			}
		})
	}
}

func permanentNodeError(err error) bool {
	var ne *dispatch.NodeError
	return errors.As(err, &ne) && ne.Permanent
}
