package attest

import (
	"bytes"
	"math/rand"
	"testing"
)

func detRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func infraWithPlatforms(t *testing.T, n int) (*Infrastructure, []*Platform) {
	t.Helper()
	inf := NewInfrastructure()
	ps := make([]*Platform, n)
	for i := range ps {
		p, err := inf.NewPlatform(detRand(int64(i + 1)))
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	return inf, ps
}

func TestLocalReportVerification(t *testing.T) {
	_, ps := infraWithPlatforms(t, 2)
	m := MeasureCode([]byte("enclave"))
	var ud [UserDataSize]byte
	ud[0] = 42
	r := ps[0].CreateReport(m, ud)
	if !ps[0].VerifyReportLocal(r) {
		t.Fatal("own platform rejected its report")
	}
	// Local attestation must fail across platforms (different report keys).
	if ps[1].VerifyReportLocal(r) {
		t.Fatal("foreign platform verified a local report")
	}
	r.UserData[0] ^= 1
	if ps[0].VerifyReportLocal(r) {
		t.Fatal("tampered report verified")
	}
}

func TestQuoteVerify(t *testing.T) {
	inf, ps := infraWithPlatforms(t, 1)
	m := MeasureCode([]byte("enclave"))
	var ud [UserDataSize]byte
	q, err := ps[0].QuoteReport(ps[0].CreateReport(m, ud))
	if err != nil {
		t.Fatal(err)
	}
	if err := inf.VerifyQuote(q); err != nil {
		t.Fatalf("valid quote rejected: %v", err)
	}
}

func TestQuoteTamperedSignature(t *testing.T) {
	inf, ps := infraWithPlatforms(t, 1)
	q, err := ps[0].QuoteReport(ps[0].CreateReport(MeasureCode([]byte("e")), [UserDataSize]byte{}))
	if err != nil {
		t.Fatal(err)
	}
	q.Report.UserData[0] ^= 1 // signed content changed
	if err := inf.VerifyQuote(q); err != ErrBadSignature {
		t.Fatalf("want ErrBadSignature, got %v", err)
	}
}

func TestQuoteUnknownCert(t *testing.T) {
	inf, ps := infraWithPlatforms(t, 1)
	q, err := ps[0].QuoteReport(ps[0].CreateReport(MeasureCode([]byte("e")), [UserDataSize]byte{}))
	if err != nil {
		t.Fatal(err)
	}
	bad := *q
	bad.PCKCertID = 999
	if err := inf.VerifyQuote(&bad); err != ErrUnknownCert {
		t.Fatalf("want ErrUnknownCert, got %v", err)
	}
}

func TestQERejectsForgedReport(t *testing.T) {
	_, ps := infraWithPlatforms(t, 2)
	r := ps[0].CreateReport(MeasureCode([]byte("e")), [UserDataSize]byte{})
	// Platform 1's QE must refuse to quote platform 0's report.
	if _, err := ps[1].QuoteReport(r); err == nil {
		t.Fatal("QE quoted a foreign report")
	}
}

func TestQuoteJSONRoundtrip(t *testing.T) {
	_, ps := infraWithPlatforms(t, 1)
	q, err := ps[0].QuoteReport(ps[0].CreateReport(MeasureCode([]byte("e")), [UserDataSize]byte{7}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := q.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	q2, err := UnmarshalQuote(b)
	if err != nil {
		t.Fatal(err)
	}
	if q2.Report.UserData != q.Report.UserData || !bytes.Equal(q2.Signature, q.Signature) {
		t.Fatal("quote JSON roundtrip lost data")
	}
	if _, err := UnmarshalQuote([]byte("{")); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

// runExchange drives two Exchange sides to completion, returning both keys.
func runExchange(t *testing.T, inf *Infrastructure, pa, pb *Platform, ma, mb Measurement) ([]byte, []byte, error) {
	t.Helper()
	ea, err := NewExchange(pa, inf, ma, detRand(100))
	if err != nil {
		t.Fatal(err)
	}
	eb, err := NewExchange(pb, inf, mb, detRand(200))
	if err != nil {
		t.Fatal(err)
	}
	helloA, err := ea.Hello()
	if err != nil {
		t.Fatal(err)
	}
	helloB, err := eb.Hello()
	if err != nil {
		t.Fatal(err)
	}
	quoteB, err := eb.HandleMessage(helloA) // B answers A's hello with its quote
	if err != nil {
		return nil, nil, err
	}
	quoteA, err := ea.HandleMessage(helloB)
	if err != nil {
		return nil, nil, err
	}
	if _, err := ea.HandleMessage(quoteB); err != nil {
		return nil, nil, err
	}
	if _, err := eb.HandleMessage(quoteA); err != nil {
		return nil, nil, err
	}
	if !ea.Complete() || !eb.Complete() {
		t.Fatal("exchange incomplete after all messages")
	}
	ka, err := ea.ChannelKey()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := eb.ChannelKey()
	if err != nil {
		t.Fatal(err)
	}
	return ka, kb, nil
}

func TestExchangeEndToEnd(t *testing.T) {
	inf, ps := infraWithPlatforms(t, 2)
	m := MeasureCode([]byte("rex-enclave"))
	ka, kb, err := runExchange(t, inf, ps[0], ps[1], m, m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ka, kb) {
		t.Fatal("peers derived different channel keys")
	}
	if len(ka) != 32 {
		t.Fatalf("key length %d", len(ka))
	}
}

func TestExchangeMeasurementMismatch(t *testing.T) {
	inf, ps := infraWithPlatforms(t, 2)
	ma := MeasureCode([]byte("honest code"))
	mb := MeasureCode([]byte("rogue code"))
	_, _, err := runExchange(t, inf, ps[0], ps[1], ma, mb)
	if err == nil {
		t.Fatal("different code bases attested successfully")
	}
}

func TestExchangeKeyBeforeComplete(t *testing.T) {
	inf, ps := infraWithPlatforms(t, 1)
	e, err := NewExchange(ps[0], inf, MeasureCode([]byte("e")), detRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ChannelKey(); err == nil {
		t.Fatal("key issued before attestation")
	}
}

func TestExchangeQuoteRequiresHello(t *testing.T) {
	inf, ps := infraWithPlatforms(t, 2)
	m := MeasureCode([]byte("e"))
	ea, _ := NewExchange(ps[0], inf, m, detRand(1))
	eb, _ := NewExchange(ps[1], inf, m, detRand(2))
	helloA, _ := ea.Hello()
	quoteB, err := eb.HandleMessage(helloA)
	if err != nil {
		t.Fatal(err)
	}
	// A handling B's quote without A's own nonce binding check: the quote
	// binds A's nonce (it answered A's hello), so this succeeds.
	if _, err := ea.HandleMessage(quoteB); err != nil {
		t.Fatalf("legit quote rejected: %v", err)
	}
	// But a REPLAYED quote bound to a different nonce must fail.
	ea2, _ := NewExchange(ps[0], inf, m, detRand(3))
	if _, err := ea2.HandleMessage(quoteB); err != ErrStaleQuote {
		t.Fatalf("want ErrStaleQuote, got %v", err)
	}
}

func TestExchangeUnknownMessage(t *testing.T) {
	inf, ps := infraWithPlatforms(t, 1)
	e, _ := NewExchange(ps[0], inf, MeasureCode([]byte("e")), detRand(1))
	if _, err := e.HandleMessage([]byte(`{"type":"bogus"}`)); err == nil {
		t.Fatal("unknown message type accepted")
	}
	if _, err := e.HandleMessage([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestMeasurementString(t *testing.T) {
	m := MeasureCode([]byte("x"))
	if m.String() == "" {
		t.Fatal("empty measurement string")
	}
	if MeasureCode([]byte("x")) != m {
		t.Fatal("measurement not deterministic")
	}
	if MeasureCode([]byte("y")) == m {
		t.Fatal("different code, same measurement")
	}
}
