// Package attest simulates the SGX remote-attestation machinery REX relies
// on (paper §II-D, §III-A): enclave reports measured at initialization,
// local verification by a platform quoting enclave (QE), conversion into
// signed quotes, and verification against data-center attestation
// primitives (DCAP) collateral. All signatures are real ECDSA-P256 over
// SHA-256; only the hardware root of trust is software-simulated.
package attest

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Measurement is the SHA-256 hash of an enclave's initial code, data and
// attributes — MRENCLAVE in SGX terms. REX requires all nodes to run the
// exact same code, so every honest node's measurement is identical
// (§III-A).
type Measurement [32]byte

// MeasureCode produces a measurement from an enclave identity blob (in a
// real SGX deployment, hardware computes this over the loaded pages).
func MeasureCode(code []byte) Measurement { return sha256.Sum256(code) }

// String renders the measurement in hex.
func (m Measurement) String() string { return fmt.Sprintf("%x", m[:8]) }

// UserDataSize is the size of the quote's free-form user-data field. REX
// fills it with the enclave's ECDH public key (32 bytes) plus a 32-byte
// challenge binding (§III-A).
const UserDataSize = 64

// Report is what an enclave emits for attestation: its measurement plus
// caller-chosen user data, MACed with a key only the local platform knows,
// so it is only locally verifiable (§II-D).
type Report struct {
	Measurement Measurement        `json:"measurement"`
	UserData    [UserDataSize]byte `json:"user_data"`
	PlatformID  uint32             `json:"platform_id"`
	MAC         [32]byte           `json:"mac"`
}

func (r *Report) macInput() []byte {
	buf := make([]byte, 0, 32+UserDataSize+4)
	buf = append(buf, r.Measurement[:]...)
	buf = append(buf, r.UserData[:]...)
	buf = append(buf, byte(r.PlatformID), byte(r.PlatformID>>8), byte(r.PlatformID>>16), byte(r.PlatformID>>24))
	return buf
}

// Quote is a report countersigned by the platform's quoting enclave with
// its provisioning certification key (PCK); remotely verifiable through
// DCAP collateral.
type Quote struct {
	Report    Report `json:"report"`
	Signature []byte `json:"signature"` // ECDSA-P256 ASN.1 over SHA-256 of the report
	PCKCertID uint32 `json:"pck_cert_id"`
}

// Marshal encodes the quote as JSON — the paper's implementation likewise
// used a JSON library for attestation serialization (§III-E).
func (q *Quote) Marshal() ([]byte, error) { return json.Marshal(q) }

// UnmarshalQuote decodes a JSON quote.
func UnmarshalQuote(b []byte) (*Quote, error) {
	var q Quote
	if err := json.Unmarshal(b, &q); err != nil {
		return nil, fmt.Errorf("attest: decoding quote: %w", err)
	}
	return &q, nil
}

// Platform models one SGX machine: it owns the hardware report key (for
// local attestation) and hosts a quoting enclave holding a PCK private key
// certified by the infrastructure.
type Platform struct {
	ID        uint32
	reportKey []byte
	qeKey     *ecdsa.PrivateKey
	certID    uint32
}

// CreateReport builds a locally-verifiable report for an enclave with the
// given measurement and user data (hardware EREPORT analogue).
func (p *Platform) CreateReport(m Measurement, userData [UserDataSize]byte) Report {
	r := Report{Measurement: m, UserData: userData, PlatformID: p.ID}
	mac := hmac.New(sha256.New, p.reportKey)
	mac.Write(r.macInput())
	copy(r.MAC[:], mac.Sum(nil))
	return r
}

// VerifyReportLocal checks a report's MAC; only possible on the platform
// that produced it, exactly like SGX local attestation.
func (p *Platform) VerifyReportLocal(r Report) bool {
	if r.PlatformID != p.ID {
		return false
	}
	mac := hmac.New(sha256.New, p.reportKey)
	mac.Write(r.macInput())
	return hmac.Equal(mac.Sum(nil), r.MAC[:])
}

// QuoteReport is the quoting enclave's job: locally verify the target's
// report, then sign it for remote verification (§II-D).
func (p *Platform) QuoteReport(r Report) (*Quote, error) {
	if !p.VerifyReportLocal(r) {
		return nil, errors.New("attest: QE rejected report (bad MAC or foreign platform)")
	}
	digest := sha256.Sum256(r.macInput())
	sig, err := ecdsa.SignASN1(notRandom{}, p.qeKey, digest[:])
	if err != nil {
		return nil, fmt.Errorf("attest: QE signing: %w", err)
	}
	return &Quote{Report: r, Signature: sig, PCKCertID: p.certID}, nil
}

// notRandom makes ECDSA deterministic-ish for reproducible tests; SignASN1
// hashes this entropy with the private key and digest (Go's hedged
// signatures), so signatures remain secure for the simulation's purposes.
type notRandom struct{}

func (notRandom) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0x42
	}
	return len(p), nil
}

// Infrastructure is the simulated Intel provisioning + DCAP backend: it
// certifies platform PCK keys at manufacture and verifies quote signatures
// for remote verifiers.
type Infrastructure struct {
	nextPlatform uint32
	nextCert     uint32
	certs        map[uint32]*ecdsa.PublicKey
}

// NewInfrastructure creates an empty provisioning/DCAP backend.
func NewInfrastructure() *Infrastructure {
	return &Infrastructure{certs: make(map[uint32]*ecdsa.PublicKey)}
}

// NewPlatform manufactures a platform: generates its report key and PCK
// key pair (entropy from rand) and registers the PCK certificate.
//
// The keys are a pure function of the bytes read from rand. That matters
// for multi-process clusters: every rexd process re-derives the whole
// cluster's collateral from the shared seed, which only verifies if equal
// entropy yields equal keys. ecdsa.GenerateKey cannot provide this — Go
// deliberately randomizes its reads (randutil.MaybeReadByte) so callers
// cannot rely on determinism — hence the explicit derivation here.
func (inf *Infrastructure) NewPlatform(rand io.Reader) (*Platform, error) {
	key, err := deriveP256Key(rand)
	if err != nil {
		return nil, fmt.Errorf("attest: generating PCK key: %w", err)
	}
	reportKey := make([]byte, 32)
	if _, err := io.ReadFull(rand, reportKey); err != nil {
		return nil, fmt.Errorf("attest: generating report key: %w", err)
	}
	inf.nextPlatform++
	inf.nextCert++
	p := &Platform{
		ID:        inf.nextPlatform,
		reportKey: reportKey,
		qeKey:     key,
		certID:    inf.nextCert,
	}
	inf.certs[p.certID] = &key.PublicKey
	return p, nil
}

// deriveP256Key builds a P-256 private key deterministically from the
// entropy stream: 40 bytes (320 bits) reduced into [1, N-1], so the
// modular bias is negligible (~2^-64).
func deriveP256Key(rand io.Reader) (*ecdsa.PrivateKey, error) {
	buf := make([]byte, 40)
	if _, err := io.ReadFull(rand, buf); err != nil {
		return nil, err
	}
	curve := elliptic.P256()
	nMinus1 := new(big.Int).Sub(curve.Params().N, big.NewInt(1))
	d := new(big.Int).SetBytes(buf)
	d.Mod(d, nMinus1).Add(d, big.NewInt(1))
	priv := &ecdsa.PrivateKey{D: d}
	priv.Curve = curve
	priv.X, priv.Y = curve.ScalarBaseMult(d.Bytes())
	return priv, nil
}

// Errors returned by VerifyQuote.
var (
	ErrUnknownCert  = errors.New("attest: unknown PCK certificate")
	ErrBadSignature = errors.New("attest: invalid quote signature")
)

// VerifyQuote is the DCAP check a remote verifier performs: the signing
// certificate must be known, and the ECDSA signature must
// cover the report (§II-D). Measurement policy is the caller's job.
func (inf *Infrastructure) VerifyQuote(q *Quote) error {
	pub, ok := inf.certs[q.PCKCertID]
	if !ok {
		return ErrUnknownCert
	}
	digest := sha256.Sum256(q.Report.macInput())
	if !ecdsa.VerifyASN1(pub, digest[:], q.Signature) {
		return ErrBadSignature
	}
	return nil
}
