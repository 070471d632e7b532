package dispatch

import (
	"bytes"
	"context"
	"crypto/tls"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Dynamic fleet membership. PR 7 wired the fleet by hand (-nodes a,b,c);
// here nodes introduce themselves: evald -join <controller> POSTs a
// registration to the controller's fleet endpoint, re-POSTs it
// periodically as a liveness lease, and DELETEs itself (deregister) when
// draining. The controller side is Membership: it turns registrations
// into Pool.Join calls (dialing the advertised address), expires silent
// nodes after their lease lapses (Pool.Leave, journaled "leave"), and
// removes draining nodes immediately (journaled "drain") so their
// in-flight remainder re-dispatches at zero virtual cost instead of
// waiting out a heartbeat timeout. Registration is authenticated exactly
// like evaluation: mutual TLS at the transport, shared bearer token at
// the request — an unknown peer cannot vote itself into the fleet.

// RegisterPath is the controller's fleet registration endpoint.
const RegisterPath = "/v1/fleet/register"

// DeregisterPath is the controller's fleet deregistration endpoint.
const DeregisterPath = "/v1/fleet/deregister"

// Registration protocol bounds.
const (
	// MaxRegisterBytes bounds a registration request body.
	MaxRegisterBytes = 1 << 16
	// MaxAddrLen bounds the advertised address length.
	MaxAddrLen = 512
	// MaxLeaseSeconds caps the lease a node may request.
	MaxLeaseSeconds = 3600
	// MaxJoinInterval is the longest Joiner.Interval: a node asks for a
	// lease of three intervals, which must stay within MaxLeaseSeconds.
	MaxJoinInterval = MaxLeaseSeconds * time.Second / 3
)

// RegisterRequest is one node announcing (or renewing) itself.
type RegisterRequest struct {
	// Addr is the address controllers dial to reach the node's evaluate
	// endpoints ("host:port" or a full base URL). Required.
	Addr string `json:"addr"`
	// Node names the node; defaults to Addr. The name is the fleet-wide
	// identity: re-registering under a known name renews its lease (and
	// revives it after a flap) rather than adding a duplicate.
	Node string `json:"node,omitempty"`
	// TTLSeconds is the lease the node asks for, at most MaxLeaseSeconds;
	// the controller grants it and answers with the granted lease. Zero
	// means the controller's default, 15 s.
	TTLSeconds int `json:"ttl_seconds,omitempty"`
}

// RegisterResponse grants a lease: the node must re-register within
// LeaseSeconds or the controller declares it gone.
type RegisterResponse struct {
	Node         string `json:"node"`
	LeaseSeconds int    `json:"lease_seconds"`
}

// DeregisterRequest is a draining node removing itself from the fleet.
type DeregisterRequest struct {
	Node string `json:"node"`
}

// Validate checks the registration's self-contained invariants.
func (q *RegisterRequest) Validate() error {
	switch {
	case q.Addr == "":
		return reject(CodeBadPayload, "dispatch: registration missing addr")
	case len(q.Addr) > MaxAddrLen:
		return reject(CodeBadPayload, "dispatch: addr exceeds %d bytes", MaxAddrLen)
	case len(q.Node) > MaxAddrLen:
		return reject(CodeBadPayload, "dispatch: node name exceeds %d bytes", MaxAddrLen)
	case q.TTLSeconds < 0 || q.TTLSeconds > MaxLeaseSeconds:
		return reject(CodeBadPayload, "dispatch: ttl %d outside [0, %d]", q.TTLSeconds, MaxLeaseSeconds)
	}
	return nil
}

// DecodeRegisterRequest parses and validates a registration body. Unknown
// fields fail closed, like every other wire decoder here.
func DecodeRegisterRequest(data []byte) (*RegisterRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var q RegisterRequest
	if err := dec.Decode(&q); err != nil {
		return nil, reject(CodeBadPayload, "dispatch: decode registration: %v", err)
	}
	if dec.More() {
		return nil, reject(CodeBadPayload, "dispatch: trailing data after registration")
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return &q, nil
}

// DecodeDeregisterRequest parses and validates a deregistration body.
func DecodeDeregisterRequest(data []byte) (*DeregisterRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var q DeregisterRequest
	if err := dec.Decode(&q); err != nil {
		return nil, reject(CodeBadPayload, "dispatch: decode deregistration: %v", err)
	}
	if dec.More() {
		return nil, reject(CodeBadPayload, "dispatch: trailing data after deregistration")
	}
	if q.Node == "" {
		return nil, reject(CodeBadPayload, "dispatch: deregistration missing node")
	}
	if len(q.Node) > MaxAddrLen {
		return nil, reject(CodeBadPayload, "dispatch: node name exceeds %d bytes", MaxAddrLen)
	}
	return &q, nil
}

// Membership is the controller-side registry: it serves the registration
// endpoints, maps leases onto a dynamic Pool, and expires silent nodes.
type Membership struct {
	// Sec authenticates registrations and supplies the dial credentials
	// for joined nodes; nil means open and plaintext.
	Sec *Security
	// Telemetry receives the dispatch_membership_* counters.
	Telemetry *telemetry.Registry
	// Dial builds the evaluator for a registered node: name is the node's
	// fleet-wide identity (the evaluator's Name must answer it, or the
	// lease table and the pool would disagree about who is who), addr the
	// address it advertised. Defaults to NewSecureRemote under Sec.
	Dial func(name, addr string) (Evaluator, error)

	pool *Pool

	mu     sync.Mutex
	leases map[string]time.Time
	stop   chan struct{}
	done   chan struct{}
}

// NewMembership builds a registry feeding pool, which should be a dynamic
// pool (NewDynamicPool) so joins can land on an empty fleet.
func NewMembership(pool *Pool, sec *Security) *Membership {
	return &Membership{Sec: sec, pool: pool, leases: make(map[string]time.Time)}
}

// leaseTTL is the liveness lease granted to a node that asks for none, and
// leaseSweep the expiry janitor's period.
const (
	leaseTTL   = 15 * time.Second
	leaseSweep = leaseTTL / 3
)

func (m *Membership) dial(name, addr string) (Evaluator, error) {
	if m.Dial != nil {
		return m.Dial(name, addr)
	}
	rem, err := NewSecureRemote(addr, m.Sec)
	if err != nil {
		return nil, err
	}
	// The registered name is the node's fleet-wide identity: pool member,
	// lease key, and journal records must all agree on it, or a drain
	// could never find the node it is draining.
	rem.NodeName = name
	return rem, nil
}

// Handler returns the HTTP handler serving the registration endpoints;
// mount it on the controller's fleet listener.
func (m *Membership) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(RegisterPath, m.handleRegister)
	mux.HandleFunc(DeregisterPath, m.handleDeregister)
	return mux
}

func (m *Membership) writeError(w http.ResponseWriter, status int, err error) {
	env := ErrorEnvelope{Error: err.Error(), Code: CodeInternal}
	var re *RequestError
	if errors.As(err, &re) {
		env.Code = re.Code
	}
	writeJSON(w, status, env)
}

// gate runs the shared method/auth/body admission for both endpoints and
// returns the request body, or nil after writing the rejection.
func (m *Membership) gate(w http.ResponseWriter, r *http.Request) []byte {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, ErrorEnvelope{Error: "dispatch: POST only", Code: CodeMethod})
		return nil
	}
	if !m.Sec.Authorize(r) {
		m.counter("dispatch_membership_unauthorized_total").Inc()
		writeJSON(w, http.StatusUnauthorized, ErrorEnvelope{Error: "dispatch: missing or invalid credentials", Code: CodeUnauthorized})
		return nil
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, MaxRegisterBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorEnvelope{Error: "dispatch: read body: " + err.Error(), Code: CodeBadPayload})
		return nil
	}
	return data
}

func (m *Membership) handleRegister(w http.ResponseWriter, r *http.Request) {
	data := m.gate(w, r)
	if data == nil {
		return
	}
	q, err := DecodeRegisterRequest(data)
	if err != nil {
		m.writeError(w, http.StatusBadRequest, err)
		return
	}
	name := q.Node
	if name == "" {
		name = q.Addr
	}
	ev, err := m.dial(name, q.Addr)
	if err != nil {
		m.writeError(w, http.StatusBadRequest, reject(CodeBadPayload, "dispatch: dial %s: %v", q.Addr, err))
		return
	}
	// A node renews every third of the lease it asks for, so granting less
	// would let the lease lapse between renewals.
	ttl := leaseTTL
	if q.TTLSeconds > 0 {
		ttl = time.Duration(q.TTLSeconds) * time.Second
	}
	m.mu.Lock()
	_, renewal := m.leases[name]
	m.leases[name] = time.Now().Add(ttl)
	m.mu.Unlock()
	if !renewal {
		m.counter("dispatch_membership_registers_total").Inc()
	}
	// Join is idempotent for a known name (lease renewal), and revives the
	// node after a flap — re-registration is the node's proof of life.
	m.pool.Join(ev, q.Addr)
	writeJSON(w, http.StatusOK, RegisterResponse{Node: name, LeaseSeconds: int(ttl / time.Second)})
}

func (m *Membership) handleDeregister(w http.ResponseWriter, r *http.Request) {
	data := m.gate(w, r)
	if data == nil {
		return
	}
	q, err := DecodeDeregisterRequest(data)
	if err != nil {
		m.writeError(w, http.StatusBadRequest, err)
		return
	}
	m.mu.Lock()
	delete(m.leases, q.Node)
	m.mu.Unlock()
	m.pool.Leave(q.Node, true)
	m.counter("dispatch_membership_drains_total").Inc()
	writeJSON(w, http.StatusOK, struct{}{})
}

// Expire removes every node whose lease lapsed at or before now,
// returning the expired names. The janitor calls it periodically; tests
// call it directly.
func (m *Membership) Expire(now time.Time) []string {
	m.mu.Lock()
	var gone []string
	for name, until := range m.leases {
		if now.After(until) {
			gone = append(gone, name)
			delete(m.leases, name)
		}
	}
	m.mu.Unlock()
	for _, name := range gone {
		m.pool.Leave(name, false)
		m.counter("dispatch_membership_expired_total").Inc()
	}
	return gone
}

// Start launches the lease-expiry janitor; Close stops it.
func (m *Membership) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stop != nil {
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	m.stop, m.done = stop, done
	go func() {
		defer close(done)
		tick := time.NewTicker(leaseSweep)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				m.Expire(time.Now())
			}
		}
	}()
}

// Serve binds the registration endpoints on addr (with the security
// config's TLS material, when present), starts the lease janitor, and
// returns the bound address — addr may use port 0 — plus a shutdown func
// that stops both.
func (m *Membership) Serve(addr string) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("dispatch: fleet listen: %w", err)
	}
	tcfg, err := m.Sec.ServerTLS()
	if err != nil {
		ln.Close()
		return "", nil, err
	}
	if tcfg != nil {
		ln = tls.NewListener(ln, tcfg)
	}
	srv := &http.Server{Handler: m.Handler()}
	go srv.Serve(ln)
	m.Start()
	return ln.Addr().String(), func() error {
		m.Close()
		return srv.Close()
	}, nil
}

// Close stops the janitor.
func (m *Membership) Close() {
	m.mu.Lock()
	stop, done := m.stop, m.done
	m.stop, m.done = nil, nil
	m.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

func (m *Membership) counter(name string) *telemetry.Counter {
	return m.Telemetry.Counter(name)
}

// Joiner is the evald-side membership client: it registers the node with
// the controller, re-registers every Interval to keep the lease alive,
// and deregisters on drain.
type Joiner struct {
	// Controller is the controller's fleet endpoint base URL (or bare
	// "host:port"; the security config decides the scheme).
	Controller string
	// Advertise is the address controllers should dial for this node.
	Advertise string
	// Node names the node; defaults to Advertise.
	Node string
	// Interval is the re-registration period; zero means 5s, and at most
	// MaxJoinInterval.
	Interval time.Duration
	// Sec supplies TLS material and the bearer token.
	Sec *Security

	clientOnce sync.Once
	client     *http.Client
	clientErr  error
}

func (j *Joiner) base() string {
	b := strings.TrimRight(j.Controller, "/")
	if !strings.Contains(b, "://") {
		b = j.Sec.Scheme() + "://" + b
	}
	return b
}

func (j *Joiner) interval() time.Duration {
	if j.Interval > 0 {
		return j.Interval
	}
	return 5 * time.Second
}

func (j *Joiner) httpClient() (*http.Client, error) {
	j.clientOnce.Do(func() {
		j.client, j.clientErr = j.Sec.HTTPClient()
	})
	return j.client, j.clientErr
}

func (j *Joiner) post(ctx context.Context, path string, payload any) error {
	client, err := j.httpClient()
	if err != nil {
		return err
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, j.base()+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hr.Header.Set("Content-Type", "application/json")
	j.Sec.Bearer(hr)
	resp, err := client.Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, MaxRegisterBytes))
	if resp.StatusCode != http.StatusOK {
		var env ErrorEnvelope
		if json.Unmarshal(data, &env) == nil && env.Error != "" {
			return fmt.Errorf("dispatch: controller answered %d [%s]: %s", resp.StatusCode, env.Code, env.Error)
		}
		return fmt.Errorf("dispatch: controller answered %d", resp.StatusCode)
	}
	return nil
}

// Validate reports a Joiner no controller admits: an Interval past
// MaxJoinInterval asks for a lease above MaxLeaseSeconds, which every
// registration endpoint refuses. Register and Run return the same error
// before they send anything.
func (j *Joiner) Validate() error {
	if iv := j.interval(); iv > MaxJoinInterval {
		return fmt.Errorf("dispatch: join interval %s exceeds %s: the lease of 3x the interval would pass the controller's %d s limit",
			iv, MaxJoinInterval, MaxLeaseSeconds)
	}
	return nil
}

// Register performs one registration (join or lease renewal).
func (j *Joiner) Register(ctx context.Context) error {
	if err := j.Validate(); err != nil {
		return err
	}
	ttl := 3 * j.interval()
	return j.post(ctx, RegisterPath, &RegisterRequest{
		Addr: j.Advertise, Node: j.Node, TTLSeconds: int(ttl / time.Second),
	})
}

// Deregister removes the node from the fleet (graceful drain).
func (j *Joiner) Deregister(ctx context.Context) error {
	name := j.Node
	if name == "" {
		name = j.Advertise
	}
	return j.post(ctx, DeregisterPath, &DeregisterRequest{Node: name})
}

// Run re-registers every Interval until ctx is done, then returns nil.
// Transient controller outages are retried on the next tick — the lease
// TTL (3× the interval) rides out two missed renewals. A Joiner that fails
// Validate is never retried: Run returns its error at once.
func (j *Joiner) Run(ctx context.Context) error {
	if err := j.Validate(); err != nil {
		return err
	}
	tick := time.NewTicker(j.interval())
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
			_ = j.Register(ctx)
		}
	}
}

// writeJSON writes one JSON response with the envelope conventions of the
// evald server.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
