package dispatch

import (
	"crypto/subtle"
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"net/http"
	"os"
	"strings"
)

// Wire security is two independent, composable layers, both fail-closed:
//
//   - Mutual TLS: -tls-cert/-tls-key name this process's certificate,
//     -tls-ca the CA that signed the peer's. Servers demand and verify a
//     client certificate; clients verify the server against the same CA.
//     A connection from outside the CA's trust domain never reaches a
//     handler — the handshake itself fails.
//   - Shared bearer token: -auth-token is compared in constant time
//     against the Authorization header of every request. A missing or
//     wrong token is a 401 ErrorEnvelope with CodeUnauthorized.
//
// Either layer alone is useful (token-only for trusted networks, mTLS-only
// for cert-managed fleets); together they give transport identity plus an
// application-level credential that rotates without reissuing certs.

// Security carries the wire credentials shared by controllers and nodes.
// The zero value is plaintext-and-open (the loopback/test default).
type Security struct {
	// CertFile and KeyFile are this process's PEM certificate and key.
	CertFile string
	KeyFile  string
	// CAFile is the PEM CA bundle the peer must chain to. Setting it on a
	// server demands client certificates (mutual TLS).
	CAFile string
	// Token is the shared bearer token; empty disables the check.
	Token string
}

// TLS reports whether any TLS material is configured.
func (s *Security) TLS() bool {
	return s != nil && (s.CertFile != "" || s.KeyFile != "" || s.CAFile != "")
}

func (s *Security) loadCA() (*x509.CertPool, error) {
	pem, err := os.ReadFile(s.CAFile)
	if err != nil {
		return nil, fmt.Errorf("dispatch: read CA bundle: %w", err)
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(pem) {
		return nil, fmt.Errorf("dispatch: no certificates in CA bundle %s", s.CAFile)
	}
	return pool, nil
}

// ServerTLS builds the tls.Config for a listening evald or controller
// registration endpoint. With a CA configured, client certificates are
// required and verified — an unknown peer fails the handshake, fail-closed.
func (s *Security) ServerTLS() (*tls.Config, error) {
	if !s.TLS() {
		return nil, nil
	}
	if s.CertFile == "" || s.KeyFile == "" {
		return nil, fmt.Errorf("dispatch: TLS serving requires both -tls-cert and -tls-key")
	}
	cert, err := tls.LoadX509KeyPair(s.CertFile, s.KeyFile)
	if err != nil {
		return nil, fmt.Errorf("dispatch: load key pair: %w", err)
	}
	cfg := &tls.Config{
		Certificates: []tls.Certificate{cert},
		MinVersion:   tls.VersionTLS12,
	}
	if s.CAFile != "" {
		ca, err := s.loadCA()
		if err != nil {
			return nil, err
		}
		cfg.ClientCAs = ca
		cfg.ClientAuth = tls.RequireAndVerifyClientCert
	}
	return cfg, nil
}

// ClientTLS builds the tls.Config for dialing a TLS peer: the CA bundle
// verifies the server, and this process's certificate (when configured)
// answers the server's mutual-TLS demand.
func (s *Security) ClientTLS() (*tls.Config, error) {
	if !s.TLS() {
		return nil, nil
	}
	cfg := &tls.Config{MinVersion: tls.VersionTLS12}
	if s.CAFile != "" {
		ca, err := s.loadCA()
		if err != nil {
			return nil, err
		}
		cfg.RootCAs = ca
	}
	if s.CertFile != "" {
		if s.KeyFile == "" {
			return nil, fmt.Errorf("dispatch: -tls-cert without -tls-key")
		}
		cert, err := tls.LoadX509KeyPair(s.CertFile, s.KeyFile)
		if err != nil {
			return nil, fmt.Errorf("dispatch: load key pair: %w", err)
		}
		cfg.Certificates = []tls.Certificate{cert}
	}
	return cfg, nil
}

// HTTPClient builds an HTTP client whose transport dials with the
// configured client TLS material. Plaintext configs get a plain client.
func (s *Security) HTTPClient() (*http.Client, error) {
	tcfg, err := s.ClientTLS()
	if err != nil {
		return nil, err
	}
	if tcfg == nil {
		return &http.Client{}, nil
	}
	return &http.Client{Transport: &http.Transport{TLSClientConfig: tcfg}}, nil
}

// Scheme returns the URL scheme matching the security config.
func (s *Security) Scheme() string {
	if s.TLS() {
		return "https"
	}
	return "http"
}

// Authorize checks the request's bearer token in constant time. It returns
// true when the request may proceed; handlers answer false with a 401
// CodeUnauthorized envelope.
func (s *Security) Authorize(r *http.Request) bool {
	if s == nil || s.Token == "" {
		return true
	}
	got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	if !ok {
		return false
	}
	return subtle.ConstantTimeCompare([]byte(got), []byte(s.Token)) == 1
}

// Bearer stamps the shared token onto an outbound request.
func (s *Security) Bearer(r *http.Request) {
	if s != nil && s.Token != "" {
		r.Header.Set("Authorization", "Bearer "+s.Token)
	}
}
