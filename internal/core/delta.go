package core

import "rex/internal/dataset"

// DataDelta is the wire-level delta representation of a DataSharing
// payload: the runtime's per-peer delta codec (internal/runtime) splits a
// shared sample into triplets the receiver provably already holds —
// shipped as back-references into the dictionary of previously-sent
// entries — and triplets it may not, shipped explicitly.
//
// Reconstruction is merge-equivalent to the original sample by two
// properties of the raw-data store (dataset.Store):
//
//   - a referenced triplet was sent in an earlier, acknowledged frame, so
//     the receiver's store already contains its (user, item) key; merging
//     it again is an in-place value write whose position in the payload
//     cannot change the store's insertion order;
//   - a sample holds each (user, item) key at most once (Store.Sample
//     draws distinct positions), so no payload-internal ordering between
//     a reference and an explicit entry can alter which value wins.
//
// Only the explicit entries can be new to the receiving store, so only
// their relative order matters: Explicit preserves the sample order, and
// AppendPayload puts the reference-resolved triplets after them. Any decoded
// payload therefore merges to a bit-identical store — and bit-identical
// training trajectories — versus the full encoding.
type DataDelta struct {
	// Explicit holds new or changed triplets in original sample order.
	Explicit []dataset.Rating
	// Refs holds dictionary indices (ascending) of triplets the receiver
	// has acknowledged, to be resolved against its reconstruction of the
	// sender's dictionary.
	Refs []uint32
}

// AppendPayload materializes the delta into a flat sample appended to dst:
// explicit entries first (their order is the one that matters), then the
// references resolved against dict, the receiver's reconstruction of the
// sender's dictionary. It reports false for an index dict does not hold,
// which makes the whole payload undecodable (the caller rejects the frame
// and requests a resync rather than merge a partial sample).
func (d DataDelta) AppendPayload(dst, dict []dataset.Rating) ([]dataset.Rating, bool) {
	dst = append(dst, d.Explicit...)
	for _, idx := range d.Refs {
		if int(idx) >= len(dict) {
			return nil, false
		}
		dst = append(dst, dict[idx])
	}
	return dst, true
}
