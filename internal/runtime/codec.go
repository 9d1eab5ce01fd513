package runtime

import (
	"encoding/binary"
	"fmt"

	"rex/internal/core"
	"rex/internal/dataset"
	"rex/internal/model"
)

// Message kinds on the wire. Attestation traffic is cleartext (it carries
// no secrets — paper Algorithm 1 commentary); gossip payloads are sealed
// by the per-pair AES-GCM channel once attestation completes. Kind 2, once
// the flat gossip encoding, is retired and never reassigned: a receiver
// ignores it like any other kind it does not know.
const (
	kindAttest      byte = 1 // JSON attestation message (hello or quote)
	kindGossipDelta byte = 3 // sealed protocol payload, delta wire format
)

// FrameKindAttest and FrameKindGossipDelta expose the wire frame kinds so
// transport wrappers (internal/faultnet) can tell attestation handshakes
// from gossip payloads without decoding them: faults apply to gossip only
// — the bootstrap handshake has no retry path.
const (
	FrameKindAttest      = kindAttest
	FrameKindGossipDelta = kindGossipDelta
)

// IsGossipFrame reports whether a wire frame carries a gossip payload. The
// kind byte stays outside the seal, so wrappers and the receive path
// classify frames without decrypting.
func IsGossipFrame(data []byte) bool {
	return len(data) > 0 && data[0] == kindGossipDelta
}

// wrap prefixes the kind byte.
func wrap(kind byte, body []byte) []byte {
	out := make([]byte, 1+len(body))
	out[0] = kind
	copy(out[1:], body)
	return out
}

// payload body kinds.
const (
	payloadEmpty byte = 0
	payloadModel byte = 1
	payloadData  byte = 2
)

// payloadBodySize is the flat body's charge: a model's WireSize (the
// paper's size, an upper bound on its marshaled length, so a capacity hint
// for the encode buffer) or the rating block's exact length.
func payloadBodySize(p core.Payload) int {
	switch {
	case p.Model != nil:
		return p.Model.WireSize()
	case p.Data != nil:
		return 4 + len(p.Data)*dataset.EncodedSize
	default:
		return 0
	}
}

// EncodePayloadAppend serializes a protocol payload flat — sender id,
// degree, kind, then the model or ratings bytes — appending to dst and
// returning the extended slice, so a caller reusing one buffer encodes with
// zero allocations. No gossip frame carries it; it is the reference
// encoding the delta wire is measured against (Stats.WireRawBytes counts
// what it would have cost). Models supporting model.AppendMarshaler serialize
// straight into the output buffer, with no staging copy of the (large)
// parameter body.
func EncodePayloadAppend(dst []byte, p core.Payload) ([]byte, error) {
	off := len(dst)
	dst = append(dst, make([]byte, 9)...)
	binary.LittleEndian.PutUint32(dst[off:], uint32(p.From))
	binary.LittleEndian.PutUint32(dst[off+4:], uint32(p.Degree))
	switch {
	case p.Model != nil:
		dst[off+8] = payloadModel
		return marshalAppend(dst, p.Model)
	case p.Data != nil:
		dst[off+8] = payloadData
		return dataset.EncodeRatingsAppend(dst, p.Data), nil
	default:
		dst[off+8] = payloadEmpty
		return dst, nil
	}
}

// marshalAppend appends m's serialization to dst. Models supporting
// model.AppendMarshaler serialize straight into the buffer, with no
// staging copy of the (large) parameter body.
func marshalAppend(dst []byte, m model.Model) ([]byte, error) {
	var err error
	if am, ok := m.(model.AppendMarshaler); ok {
		dst, err = am.MarshalAppend(dst)
	} else {
		var b []byte
		b, err = m.Marshal()
		dst = append(dst, b...)
	}
	if err != nil {
		return nil, fmt.Errorf("runtime: marshaling model: %w", err)
	}
	return dst, nil
}

// DecodePayload parses EncodePayloadAppend output. newModel supplies an empty
// model for unmarshaling when the payload carries parameters.
func DecodePayload(b []byte, newModel func() model.Model) (core.Payload, error) {
	if len(b) < 9 {
		return core.Payload{}, fmt.Errorf("runtime: payload too short (%d bytes)", len(b))
	}
	p := core.Payload{
		From:   int(binary.LittleEndian.Uint32(b)),
		Degree: int(binary.LittleEndian.Uint32(b[4:])),
	}
	body := b[9:]
	switch b[8] {
	case payloadEmpty:
	case payloadModel:
		m := newModel()
		if err := m.Unmarshal(body); err != nil {
			return core.Payload{}, fmt.Errorf("runtime: unmarshaling model: %w", err)
		}
		p.Model = m
	case payloadData:
		rs, _, err := dataset.DecodeRatings(body)
		if err != nil {
			return core.Payload{}, fmt.Errorf("runtime: decoding ratings: %w", err)
		}
		p.Data = rs
	default:
		return core.Payload{}, fmt.Errorf("runtime: unknown payload kind %d", b[8])
	}
	return p, nil
}
