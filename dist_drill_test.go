package repro

// The distributed drill: real evald processes on real sockets, driven by
// the real autotune binary, with a node SIGKILLed mid-session. This is
// the process-level acceptance check for the distributed evaluation
// plane — the fixed-seed result must be byte-identical to the purely
// in-process run, node death and re-dispatch included. (The unit-level
// equivalence matrix lives in internal/dispatch; this drill proves the
// same contract survives binaries, sockets, and a kill -9.)

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/dispatch/dispatchtest"
)

// freePorts reserves n distinct loopback ports by binding and releasing
// ephemeral listeners.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}
	return addrs
}

// startEvald spawns one evald node and waits until /healthz answers.
func startEvald(t *testing.T, bin, addr, name string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, "-addr", addr, "-node", name)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + evaldHealthPath)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("evald %s never became healthy", addr)
	return nil
}

const evaldHealthPath = "/healthz"

var evalsTotalRE = regexp.MustCompile(`evald_evaluations_total(?:\{[^}]*\})? ([0-9]+)`)

// evalsServed scrapes a node's /metrics for the evaluations counter.
func evalsServed(addr string) int {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return -1
	}
	m := evalsTotalRE.FindSubmatch(body)
	if m == nil {
		return 0
	}
	var n int
	fmt.Sscanf(string(m[1]), "%d", &n)
	return n
}

// TestCLIDistDrill is the end-to-end node-kill drill behind `make
// dist-drill`: three evald processes, one fixed-seed session dispatched
// across them, one node killed with SIGKILL once it has served trials —
// and the saved result plus the event trace must match the in-process
// run byte for byte.
func TestCLIDistDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	auto, evald := cliBinary(t, "autotune"), cliBinary(t, "evald")
	dir := t.TempDir()

	addrs := freePorts(t, 3)
	nodes := make([]*exec.Cmd, len(addrs))
	for i, addr := range addrs {
		nodes[i] = startEvald(t, evald, addr, fmt.Sprintf("node%d", i))
	}

	args := func(outPath, tracePath string, extra ...string) []string {
		a := []string{
			"-benchmark", "fop", "-budget", "600", "-seed", "3", "-workers", "3",
			"-out", outPath, "-trace", tracePath,
		}
		return append(a, extra...)
	}

	localOut := filepath.Join(dir, "local.json")
	localTrace := filepath.Join(dir, "local.jsonl")
	if out, err := exec.Command(auto, args(localOut, localTrace)...).CombinedOutput(); err != nil {
		t.Fatalf("in-process control run failed: %v\n%s", err, out)
	}

	distOut := filepath.Join(dir, "dist.json")
	distTrace := filepath.Join(dir, "dist.jsonl")
	dist := exec.Command(auto, args(distOut, distTrace,
		"-nodes", strings.Join(addrs, ","))...)
	var distLog strings.Builder
	dist.Stdout, dist.Stderr = &distLog, &distLog
	if err := dist.Start(); err != nil {
		t.Fatal(err)
	}

	// Kill node 1 the moment it has served at least one trial for this
	// session, so its in-flight work has to be re-dispatched. If the
	// session outruns the poll the comparison below still holds — silent
	// re-dispatch means the bytes cannot tell either way — but we track
	// whether the kill landed mid-run so the drill reports what it proved.
	victim := addrs[1]
	served := 0
	killDeadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(killDeadline) {
		if served = evalsServed(victim); served > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if served > 0 {
		nodes[1].Process.Kill()
		nodes[1].Wait()
	}
	if err := dist.Wait(); err != nil {
		t.Fatalf("distributed run failed: %v\n%s", err, distLog.String())
	}
	if served <= 0 {
		t.Fatalf("victim node never served a trial — drill proved nothing\n%s", distLog.String())
	}
	t.Logf("killed %s after %d evaluations served", victim, served)

	for _, pair := range [][2]string{{localOut, distOut}, {localTrace, distTrace}} {
		want, err := os.ReadFile(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if string(want) != string(got) {
			t.Errorf("%s and %s differ: the node kill leaked into the session bytes",
				pair[0], pair[1])
		}
	}
}

// evalsServedVia scrapes a node's /metrics through the given client and
// scheme (the authenticated drill speaks mutual TLS even to /metrics).
func evalsServedVia(client *http.Client, scheme, addr string) int {
	resp, err := client.Get(scheme + "://" + addr + "/metrics")
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return -1
	}
	m := evalsTotalRE.FindSubmatch(body)
	if m == nil {
		return 0
	}
	var n int
	fmt.Sscanf(string(m[1]), "%d", &n)
	return n
}

// TestCLIDistDrillMembership is the self-healing fleet drill behind
// `make dist-drill`: a controller starts with an EMPTY fleet behind
// -fleet-listen, real evald processes join it over mutual TLS with a
// shared bearer token, one node is SIGTERMed mid-session — it deregisters
// (graceful drain) and finishes its in-flight work — and the fixed-seed
// result plus the event trace must still match the purely in-process run
// byte for byte, with the join and the drain journaled in the fleet WAL.
func TestCLIDistDrillMembership(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	auto, evald := cliBinary(t, "autotune"), cliBinary(t, "evald")
	dir := t.TempDir()

	ca, err := dispatchtest.NewCA(dir, "drill-ca")
	if err != nil {
		t.Fatal(err)
	}
	ctrlCert, ctrlKey, err := ca.Issue(dir, "controller")
	if err != nil {
		t.Fatal(err)
	}
	nodeCert, nodeKey, err := ca.Issue(dir, "node")
	if err != nil {
		t.Fatal(err)
	}
	const token = "drill-fleet-token"

	addrs := freePorts(t, 3)
	fleetAddr, nodeAddrs := addrs[0], addrs[1:]

	args := func(outPath, tracePath string, extra ...string) []string {
		a := []string{
			"-benchmark", "fop", "-budget", "2000", "-seed", "41", "-workers", "3",
			"-out", outPath, "-trace", tracePath,
		}
		return append(a, extra...)
	}

	localOut := filepath.Join(dir, "local.json")
	localTrace := filepath.Join(dir, "local.jsonl")
	if out, err := exec.Command(auto, args(localOut, localTrace)...).CombinedOutput(); err != nil {
		t.Fatalf("in-process control run failed: %v\n%s", err, out)
	}

	distOut := filepath.Join(dir, "dist.json")
	distTrace := filepath.Join(dir, "dist.jsonl")
	fleetState := filepath.Join(dir, "fleet.wal")
	dist := exec.Command(auto, args(distOut, distTrace,
		"-fleet-listen", fleetAddr, "-fleet-state", fleetState, "-batch", "4",
		"-tls-cert", ctrlCert, "-tls-key", ctrlKey, "-tls-ca", ca.File,
		"-auth-token", token)...)
	var distLog strings.Builder
	dist.Stdout, dist.Stderr = &distLog, &distLog
	if err := dist.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if dist.Process != nil {
			dist.Process.Kill()
		}
	}()

	// Both nodes join the live controller over mTLS. The session is already
	// running against an empty fleet, held by the dynamic pool's join grace.
	// The nodes start once the controller answers: a node whose first
	// registration beats the listener retries only at its next
	// -join-interval tick, and the session can end before that tick.
	// /metrics is scraped over the fleet's own mutual TLS — the drill
	// proves the authenticated wire end to end.
	sec := &dispatch.Security{CertFile: ctrlCert, KeyFile: ctrlKey, CAFile: ca.File}
	client, err := sec.HTTPClient()
	if err != nil {
		t.Fatal(err)
	}
	for listenDeadline := time.Now().Add(20 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		resp, err := client.Get(sec.Scheme() + "://" + fleetAddr + "/")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(listenDeadline) {
			t.Fatalf("controller never listened on %s: %v", fleetAddr, err)
		}
	}
	nodes := make([]*exec.Cmd, len(nodeAddrs))
	for i, addr := range nodeAddrs {
		cmd := exec.Command(evald,
			"-addr", addr, "-node", fmt.Sprintf("member%d", i),
			"-join", fleetAddr, "-advertise", addr, "-join-interval", "500ms",
			"-tls-cert", nodeCert, "-tls-key", nodeKey, "-tls-ca", ca.File,
			"-auth-token", token)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		nodes[i] = cmd
		t.Cleanup(func() {
			if cmd.Process != nil {
				cmd.Process.Kill()
				cmd.Wait()
			}
		})
	}

	// SIGTERM the second node the moment it has served a trial: it must
	// deregister (journaled drain) and exit cleanly, while the controller
	// re-dispatches whatever it still owed.
	victim := nodeAddrs[1]
	served := 0
	killDeadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(killDeadline) {
		if served = evalsServedVia(client, sec.Scheme(), victim); served > 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	drained := false
	if served > 0 {
		if err := nodes[1].Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := nodes[1].Wait(); err != nil {
			t.Fatalf("SIGTERMed node exited dirty: %v", err)
		}
		drained = true
	}
	if err := dist.Wait(); err != nil {
		t.Fatalf("distributed run failed: %v\n%s", err, distLog.String())
	}
	if served <= 0 {
		t.Fatalf("victim node never served a trial — drill proved nothing\n%s", distLog.String())
	}
	t.Logf("drained %s after %d evaluations served", victim, served)

	for _, pair := range [][2]string{{localOut, distOut}, {localTrace, distTrace}} {
		want, err := os.ReadFile(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if string(want) != string(got) {
			t.Errorf("%s and %s differ: membership churn leaked into the session bytes",
				pair[0], pair[1])
		}
	}

	wal, err := os.ReadFile(fleetState)
	if err != nil {
		t.Fatalf("fleet journal: %v", err)
	}
	if !bytes.Contains(wal, []byte(`"op":"join"`)) {
		t.Error("fleet journal records no join — registrations were not journaled")
	}
	if drained && !bytes.Contains(wal, []byte(`"op":"drain"`)) {
		t.Error("fleet journal records no drain — the SIGTERM deregistration was not journaled")
	}
}
