package rpc

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"errors"
	"fmt"
	"math/big"
	"net"
	"os"
	"time"
)

// CertificatePEM extracts the server certificate in PEM form so a
// separate client process can pin it (written to disk by xrd-server,
// read by xrd-client).
func CertificatePEM(serverTLS *tls.Config) ([]byte, error) {
	if len(serverTLS.Certificates) == 0 || len(serverTLS.Certificates[0].Certificate) == 0 {
		return nil, errors.New("rpc: TLS config has no certificate")
	}
	return pem.EncodeToMemory(&pem.Block{
		Type:  "CERTIFICATE",
		Bytes: serverTLS.Certificates[0].Certificate[0],
	}), nil
}

// ClientTLSFromPEM builds a client config pinning the given PEM
// certificate.
func ClientTLSFromPEM(pemBytes []byte) (*tls.Config, error) {
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(pemBytes) {
		return nil, errors.New("rpc: no certificates in PEM input")
	}
	return &tls.Config{RootCAs: pool, MinVersion: tls.VersionTLS13}, nil
}

// ClientTLSFromFile is ClientTLSFromPEM over a process's pinned
// certificate file (what xrd-server -cert-out wrote).
func ClientTLSFromFile(certFile string) (*tls.Config, error) {
	pemBytes, err := os.ReadFile(certFile)
	if err != nil {
		return nil, fmt.Errorf("rpc: reading certificate %s: %w", certFile, err)
	}
	return ClientTLSFromPEM(pemBytes)
}

// TLSIdentityPEM serialises an endpoint's whole TLS identity —
// certificate and private key — so a durable process can present the
// same pinned certificate across restarts. Peers pin certificates at
// deployment time; a gateway that rose from its data directory with a
// fresh key would be indistinguishable from an impostor and refused.
func TLSIdentityPEM(serverTLS *tls.Config) ([]byte, error) {
	certPEM, err := CertificatePEM(serverTLS)
	if err != nil {
		return nil, err
	}
	key, ok := serverTLS.Certificates[0].PrivateKey.(*ecdsa.PrivateKey)
	if !ok {
		return nil, fmt.Errorf("rpc: unsupported TLS key type %T", serverTLS.Certificates[0].PrivateKey)
	}
	der, err := x509.MarshalECPrivateKey(key)
	if err != nil {
		return nil, fmt.Errorf("rpc: marshalling TLS key: %w", err)
	}
	keyPEM := pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: der})
	return append(certPEM, keyPEM...), nil
}

// TLSIdentityFromPEM rebuilds the server and pinned-client configs
// from a TLSIdentityPEM blob.
func TLSIdentityFromPEM(pemBytes []byte) (server *tls.Config, client *tls.Config, err error) {
	cert, err := tls.X509KeyPair(pemBytes, pemBytes)
	if err != nil {
		return nil, nil, fmt.Errorf("rpc: parsing TLS identity: %w", err)
	}
	leaf, err := x509.ParseCertificate(cert.Certificate[0])
	if err != nil {
		return nil, nil, fmt.Errorf("rpc: parsing TLS identity certificate: %w", err)
	}
	cert.Leaf = leaf
	server, client = pinned(cert)
	return server, client, nil
}

// pinned returns the server config presenting cert and the client
// config that trusts exactly its leaf certificate.
func pinned(cert tls.Certificate) (server *tls.Config, client *tls.Config) {
	pool := x509.NewCertPool()
	pool.AddCert(cert.Leaf)
	server = &tls.Config{Certificates: []tls.Certificate{cert}, MinVersion: tls.VersionTLS13}
	client = &tls.Config{RootCAs: pool, MinVersion: tls.VersionTLS13}
	return server, client
}

// LoadOrCreateTLSIdentity returns the identity stored at path,
// generating (and persisting) a fresh self-signed one on first use.
// This is how a durable gateway keeps the certificate its peers
// pinned: the key lives next to the WAL it authenticates.
func LoadOrCreateTLSIdentity(path string, hosts ...string) (server *tls.Config, client *tls.Config, err error) {
	if pemBytes, rerr := os.ReadFile(path); rerr == nil {
		return TLSIdentityFromPEM(pemBytes)
	} else if !errors.Is(rerr, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("rpc: reading TLS identity: %w", rerr)
	}
	server, client, err = SelfSignedTLS(hosts...)
	if err != nil {
		return nil, nil, err
	}
	pemBytes, err := TLSIdentityPEM(server)
	if err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(path, pemBytes, 0o600); err != nil {
		return nil, nil, fmt.Errorf("rpc: writing TLS identity: %w", err)
	}
	return server, client, nil
}

// SelfSignedTLS generates an ephemeral self-signed certificate for
// the given hosts and returns the server TLS config together with a
// client config that trusts exactly that certificate (certificate
// pinning). The paper assumes a PKI distributes server identities
// (§3.1); pinning the generated certificate models that distribution
// without an external CA.
func SelfSignedTLS(hosts ...string) (server *tls.Config, client *tls.Config, err error) {
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, nil, fmt.Errorf("rpc: generating TLS key: %w", err)
	}
	serial, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), 128))
	if err != nil {
		return nil, nil, fmt.Errorf("rpc: generating serial: %w", err)
	}
	tmpl := x509.Certificate{
		SerialNumber:          serial,
		Subject:               pkix.Name{CommonName: "xrd-node"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(365 * 24 * time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		BasicConstraintsValid: true,
		IsCA:                  true,
	}
	for _, h := range hosts {
		if ip := net.ParseIP(h); ip != nil {
			tmpl.IPAddresses = append(tmpl.IPAddresses, ip)
		} else {
			tmpl.DNSNames = append(tmpl.DNSNames, h)
		}
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, &priv.PublicKey, priv)
	if err != nil {
		return nil, nil, fmt.Errorf("rpc: creating certificate: %w", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, nil, fmt.Errorf("rpc: parsing certificate: %w", err)
	}
	server, client = pinned(tls.Certificate{Certificate: [][]byte{der}, PrivateKey: priv, Leaf: cert})
	return server, client, nil
}
