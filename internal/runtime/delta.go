package runtime

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"rex/internal/compress"
	"rex/internal/core"
	"rex/internal/dataset"
)

// Gossip travels as delta frames, the one wire encoding: per-peer
// acked-state tracking, back-references for triplets the peer already
// holds, columnar bit-packing for the rest, and Huffman-coded word planes
// for model sections. What a receiver merges is exactly the payload the
// sender's core.Node produced.

// Delta frame flags.
const (
	// deltaFlagReset restarts the stream: the receiver archives its
	// reconstruction of the sender's dictionary and rebuilds from this
	// (all-explicit) frame. Sent when honoring a resync request and on
	// the first frame after a daemon resume.
	deltaFlagReset byte = 1 << 0
	// deltaFlagResyncReq piggybacks the receiver's "my view of your
	// stream has a persistent gap, send me a reset" signal on its own
	// outbound frames.
	deltaFlagResyncReq byte = 1 << 1

	deltaFlagsKnown = deltaFlagReset | deltaFlagResyncReq
)

// gapResyncThreshold is how far highSeen may run ahead of the contiguous
// watermark before the receiver requests a full resync. Adjacent-swap
// reordering (the only reorder a per-pair-FIFO transport expresses)
// produces a transient gap of 2, so 3 is the smallest value that never
// fires on a merely reordered link.
const gapResyncThreshold = 3

// resetRetryFrames is how many frames a sender waits for its last stream
// reset to be acknowledged before honoring another resync request. A
// request built before the reset arrived is in flight for up to two
// rounds; suppressing re-resets inside that window keeps at most one
// reset outstanding per stream, which (with adjacent-swap reorder) makes
// two resets arriving out of order impossible.
const resetRetryFrames = 2

// deltaDictCap bounds the per-edge dictionary: once a data frame's worst
// case (every point explicit) would push the explicit-entry count past
// this, the frame is sent as a self-contained stream reset instead,
// restarting the dictionary. This is what keeps per-edge delta state —
// the sender's txDict and the receiver's dict/prevDict windows — at a
// fixed footprint, allocated once, on arbitrarily long runs with churning
// samples. The cap must comfortably exceed one frame's sample size; below
// that every frame degenerates to a (correct but uncompressed) reset.
const deltaDictCap = 4096

// txDict slots hold a dictionary index plus one in 16 bits.
const _ = uint16(deltaDictCap)

// Model section forms: the marshaled parameters as they are, or coded as
// word planes (compress.PlaneEncoder). Forms 1 (a DEFLATE stream) and 2
// (word planes over DEFLATE's Huffman coder) are retired and stay
// unassigned: a receiver rejects them. Raw-data payloads never take a
// section form: their columnar packing is tighter and deterministic in
// cost.
const (
	sectionRaw    byte = 0
	sectionPlanes byte = 3
)

// maxModelSection bounds the marshaled size a word-plane model section may
// claim, so a corrupt length cannot make the decoder allocate without
// limit before validation fails.
const maxModelSection = 64 << 20

// errDeltaDiscard marks a delta frame the receiver rejected (undecodable,
// checksum mismatch, or referencing dictionary state it no longer holds).
// Like a seccha replay, the round proceeds without the frame; the resync
// protocol restores the stream.
var errDeltaDiscard = errors.New("runtime: delta frame discarded")

// deltaTx is the sender half of one directed pair's delta stream: which
// (user, item) triplets the peer has acknowledged, under which dictionary
// index, at which value. One exists per neighbor (kept across failure-
// detector drops so a rejoined peer resumes the stream); it is touched
// only by the share goroutine (send phase) and that peer's gather worker
// (ack processing), phases the epoch loop never overlaps.
type deltaTx struct {
	// seqOut is the sequence number of the last frame built for the peer
	// (the first frame is 1). Every frame handed to the transport
	// consumes a number, even if the network later drops it.
	seqOut uint64
	// ackedSeq is the highest sequence number the peer has acknowledged
	// receiving contiguously. Acks only ever advance it: a lower ack on a
	// reordered frame is old news, not a regression.
	ackedSeq uint64
	// lastResetSeq is the sequence of the last reset frame, 0 on a stream
	// never reset: where the current dictionary starts (txDict.seqs count
	// from it) and the anchor of the one-reset-in-flight suppression
	// window.
	lastResetSeq uint64
	// dict holds every explicit mention since the stream (re)start. A
	// triplet is back-referenced only when its latest mention is acked and
	// its value still matches: the receiver then provably resolves the
	// same triplet from its dictionary.
	dict txDict
	// dictCap rolls the stream over (full-frame reset) before the
	// dictionary can exceed it; deltaDictCap, lower in tests. It is fixed
	// once the first data frame has sized the dictionary.
	dictCap uint32
	// pendingReset makes the next frame a stream reset (resync request
	// received, or first frame after a daemon resume).
	pendingReset bool

	expBuf []dataset.Rating
	refBuf []uint32
}

// txDict is the sender's dictionary: entry i is the i-th explicit triplet
// since the stream (re)start, as the receiver numbers it, with the frame
// that carried it; an open-addressing table (linear probing, at most half
// full, no deletion) finds a key's latest entry. All three arrays are
// allocated once, by the edge's first data frame, for the dictionary cap:
// a roll-over clears the table in place and entries are overwritten in
// index order, so an edge's footprint never changes after that.
type txDict struct {
	slots []uint16         // dictionary index+1 of the key's latest entry; 0 = empty
	ents  []dataset.Rating // by dictionary index
	seqs  []uint32         // by dictionary index: frame seq minus deltaTx.lastResetSeq
	n     uint32           // entries in use; the next explicit entry's index
	shift uint8            // 64 - log2(len(slots))
}

// size allocates the dictionary for capacity entries.
func (d *txDict) size(capacity uint32) {
	lg := bits.Len32(2*capacity - 1) // table at most half full
	d.slots = make([]uint16, 1<<lg)
	d.ents = make([]dataset.Rating, capacity)
	d.seqs = make([]uint32, capacity)
	d.shift = uint8(64 - lg)
}

// reset empties the dictionary in place.
func (d *txDict) reset() {
	clear(d.slots)
	d.n = 0
}

// find returns the table slot of rt's key and, when the key has an entry,
// its latest dictionary index.
func (d *txDict) find(rt dataset.Rating) (slot, idx uint32, ok bool) {
	mask := uint32(len(d.slots) - 1)
	// Fibonacci hashing: the product's top bits depend on every key bit.
	slot = uint32(rt.Key() * 0x9E3779B97F4A7C15 >> d.shift)
	for {
		s := d.slots[slot]
		if s == 0 {
			return slot, 0, false
		}
		if e := d.ents[s-1]; e.User == rt.User && e.Item == rt.Item {
			return slot, uint32(s - 1), true
		}
		slot = (slot + 1) & mask
	}
}

// add registers rt as the next dictionary entry, sent in the frame rel
// past the stream start, and points the key's slot (from find) at it.
func (d *txDict) add(slot uint32, rt dataset.Rating, rel uint32) {
	d.ents[d.n] = rt
	d.seqs[d.n] = rel
	d.n++
	d.slots[slot] = uint16(d.n)
}

// requestReset arms a stream reset unless one is already in flight and
// still within its retry window (see resetRetryFrames). A reset lost on
// the wire is retried once the window lapses — the receiver keeps
// piggybacking the request until its stream is whole.
func (tx *deltaTx) requestReset() {
	if tx.lastResetSeq != 0 && tx.ackedSeq < tx.lastResetSeq &&
		tx.seqOut < tx.lastResetSeq+resetRetryFrames {
		return
	}
	tx.pendingReset = true
}

// split partitions a sample into back-references (acked, value unchanged)
// and explicit entries, registering the explicit ones in the dictionary.
// Explicit entries keep sample order; references are sorted for delta
// coding (their order is merge-irrelevant — see core.DataDelta).
func (tx *deltaTx) split(data []dataset.Rating) (explicit []dataset.Rating, refs []uint32) {
	if cap(tx.expBuf) < len(data) {
		// Sized to the sample outright: appending would regrow the pair
		// over the first epochs, as each holds a few more entries.
		tx.expBuf = make([]dataset.Rating, 0, len(data))
		tx.refBuf = make([]uint32, 0, len(data))
	}
	explicit, refs = tx.expBuf[:0], tx.refBuf[:0]
	d := &tx.dict
	rel := uint32(tx.seqOut - tx.lastResetSeq)
	for _, rt := range data {
		slot, idx, ok := d.find(rt)
		if ok && tx.lastResetSeq+uint64(d.seqs[idx]) <= tx.ackedSeq && d.ents[idx].Value == rt.Value {
			refs = append(refs, idx)
			continue
		}
		d.add(slot, rt, rel)
		explicit = append(explicit, rt)
	}
	slices.Sort(refs)
	tx.expBuf, tx.refBuf = explicit, refs
	return explicit, refs
}

// deltaRx is the receiver half: the reconstruction of one peer's
// dictionary and the contiguity bookkeeping that drives acks and resync
// requests. Touched only by that peer's gather worker (decode) and the
// share goroutine (reading the ack watermark), never concurrently.
type deltaRx struct {
	// base is the sequence number of the stream-start frame: 0 for a
	// fresh stream, else the seq of the last reset. Frames below it
	// resolve against the archived previous window.
	base uint64
	// watermark is the highest sequence number up to which every frame
	// has been received and folded into dict — the ack the peer gets.
	watermark uint64
	// highSeen is the highest sequence number observed; a persistent
	// highSeen-watermark gap triggers a resync request.
	highSeen uint64
	// dict is the explicit entries of frames base..watermark in sequence
	// order — the receiver's reconstruction of the sender's dictionary
	// prefix that back-references may point into.
	dict []dataset.Rating
	// prevBase/prevDict archive the window that a reset replaced, so a
	// pre-reset frame overtaken by the reset (adjacent-swap reorder)
	// still resolves its references and merges exactly the sample its
	// sender encoded. One generation suffices: at most one reset is in
	// flight per stream. dict and prevDict are two buffers of
	// deltaDictCap entries that trade places at each reset.
	prevBase uint64
	prevDict []dataset.Rating
	// segs holds (copies of) the explicit entries of frames received
	// beyond the watermark, keyed by seq, until the gap below them fills.
	segs map[uint64][]dataset.Rating
	// wantResync piggybacks a resync request on outbound frames until the
	// stream is contiguous again.
	wantResync bool

	// Decode scratch: the parsed frame (its explicit block and reference
	// list) and the reconstructed sample. The payload decodeDeltaFrame
	// returns aliases it and stays valid until the peer's next frame is
	// decoded — one round later; stream state keeps copies only.
	frame  deltaFrame
	sample []dataset.Rating
}

// ackPlus1 is the piggybacked ack field: watermark+1, or 0 when nothing
// has been received on this stream yet.
func (rx *deltaRx) ackPlus1() uint64 {
	if rx.watermark == 0 {
		return 0
	}
	return rx.watermark + 1
}

// deltaFrame is a parsed (but not yet applied) delta frame.
type deltaFrame struct {
	from, degree int
	flags        byte
	seq          uint64
	ackPlus1     uint64
	payloadKind  byte
	modelBytes   []byte // marshaled model (planes already undone; aliases the frame or the worker's scratch)
	data         core.DataDelta
	sum          uint32 // payload checksum (data frames)
}

// payloadChecksum is an order-independent 32-bit digest of a flat rating
// payload: per-triplet hashes XOR-folded, so the sender digests its
// original sample while the receiver digests the reconstruction
// (explicits first, then resolved references) and both agree exactly
// when the reconstructed multiset is the sample. It is the end-to-end
// guard that a misresolved back-reference — however the stream state got
// there — is discarded rather than silently merged.
func payloadChecksum(rs []dataset.Rating) uint32 {
	var h uint32
	for _, r := range rs {
		x := r.User*2654435761 ^ r.Item*2246822519 ^ math.Float32bits(r.Value)*3266489917
		x ^= x >> 16
		x *= 2654435761
		x ^= x >> 13
		h ^= x
	}
	return h
}

// deltaHeaderMax bounds a delta frame body's header: sender, degree, flags,
// payload kind, then the seq and ack uvarints.
const deltaHeaderMax = 10 + 2*binary.MaxVarintLen64

// parse validates and decodes a delta frame body (everything after the
// outer kind byte, post-decryption) into f, reusing f's explicit block and
// reference list as scratch; a word-plane model section is decoded into the
// gather worker's scratch s, which f.modelBytes then aliases. It is pure:
// no receiver state is read or written, so rejected bytes cannot corrupt a
// stream. Unknown flags, implausible sections and trailing bytes are all
// errors; after an error f's contents are unspecified.
func (f *deltaFrame) parse(body []byte, s *gatherSlot) error {
	if len(body) < 10 {
		return fmt.Errorf("runtime: delta frame too short (%d bytes)", len(body))
	}
	*f = deltaFrame{
		from:        int(binary.LittleEndian.Uint32(body)),
		degree:      int(binary.LittleEndian.Uint32(body[4:])),
		flags:       body[8],
		payloadKind: body[9],
		data:        core.DataDelta{Explicit: f.data.Explicit[:0], Refs: f.data.Refs[:0]},
	}
	if f.flags&^deltaFlagsKnown != 0 {
		return fmt.Errorf("runtime: unknown delta flags %#x", f.flags)
	}
	rest := body[10:]
	var n int
	f.seq, n = binary.Uvarint(rest)
	if n <= 0 || f.seq == 0 {
		return fmt.Errorf("runtime: bad delta seq")
	}
	rest = rest[n:]
	f.ackPlus1, n = binary.Uvarint(rest)
	if n <= 0 {
		return fmt.Errorf("runtime: bad delta ack")
	}
	rest = rest[n:]
	switch f.payloadKind {
	case payloadEmpty:
		if len(rest) != 0 {
			return fmt.Errorf("runtime: %d trailing bytes in empty delta frame", len(rest))
		}
	case payloadModel:
		if len(rest) < 1 || (rest[0] != sectionRaw && rest[0] != sectionPlanes) {
			return fmt.Errorf("runtime: bad model section header")
		}
		form := rest[0]
		rest = rest[1:]
		ln, n := binary.Uvarint(rest)
		if n <= 0 || ln != uint64(len(rest)-n) {
			return fmt.Errorf("runtime: bad model section length")
		}
		f.modelBytes = rest[n:]
		if form == sectionPlanes {
			raw, err := s.planes.Append(s.marshaled[:0], f.modelBytes, maxModelSection)
			if err != nil {
				return fmt.Errorf("runtime: model section: %w", err)
			}
			s.marshaled, f.modelBytes = raw, raw
		}
	case payloadData:
		explicit, rest, err := compress.DecodeRatingsColumnarAppend(f.data.Explicit, rest)
		if err != nil {
			return fmt.Errorf("runtime: delta explicit block: %w", err)
		}
		f.data.Explicit = explicit
		refs, rest, err := compress.DecodeIndexDeltasAppend(f.data.Refs, rest)
		if err != nil {
			return fmt.Errorf("runtime: delta ref block: %w", err)
		}
		f.data.Refs = refs
		if len(rest) != 4 {
			return fmt.Errorf("runtime: delta checksum: %d bytes", len(rest))
		}
		f.sum = binary.LittleEndian.Uint32(rest)
		if len(f.data.Refs) > 0 && f.flags&deltaFlagReset != 0 {
			return fmt.Errorf("runtime: reset frame carries refs")
		}
	default:
		return fmt.Errorf("runtime: unknown delta payload kind %d", f.payloadKind)
	}
	return nil
}

// apply validates f against the stream state and, only when every check
// passes, commits it: dictionary growth, watermark advance, gap tracking.
// On error the receiver state is untouched, so arbitrary rejected bytes
// can never corrupt the stream. The returned ratings are the
// reconstructed flat sample (empty for empty/model frames), held in the
// decode scratch, which is produced — and merged by the caller — for every
// accepted frame whether or not it commits: duplicates and overtaken
// pre-reset frames merge exactly the sample their sender encoded.
func (rx *deltaRx) apply(f *deltaFrame) ([]dataset.Rating, error) {
	if f.flags&deltaFlagReset != 0 {
		return rx.applyReset(f)
	}
	// Pick the dictionary window the frame's references were coded
	// against: the live one, or the archived pre-reset window for a frame
	// the reset overtook.
	dict := rx.dict
	if f.seq < rx.base {
		if f.seq < rx.prevBase && len(f.data.Refs) > 0 {
			return nil, fmt.Errorf("%w: frame predates archived window", errDeltaDiscard)
		}
		dict = rx.prevDict
	}
	sample, ok := f.data.AppendPayload(rx.sample[:0], dict)
	if !ok {
		return nil, fmt.Errorf("%w: unresolvable dictionary reference", errDeltaDiscard)
	}
	rx.sample = sample
	if f.payloadKind == payloadData && payloadChecksum(sample) != f.sum {
		return nil, fmt.Errorf("%w: payload checksum mismatch", errDeltaDiscard)
	}
	// Stale (pre-reset) frames and duplicates reconstruct without
	// committing; the dictionary prefix a duplicate re-delivers is
	// immutable between resets, so nothing needs re-folding.
	stale := f.seq < rx.base
	dup := !stale && f.seq <= rx.watermark
	if !dup && !stale {
		_, dup = rx.segs[f.seq]
	}
	if !stale && !dup {
		rx.commit(f.seq, f.data.Explicit)
	}
	return sample, nil
}

// applyReset handles a stream-reset frame. The reset is all-explicit, so
// its payload always merges; the rebase itself applies only when the
// reset is new (ahead of the watermark) or an exact redelivery of the
// current base (idempotent).
func (rx *deltaRx) applyReset(f *deltaFrame) ([]dataset.Rating, error) {
	if f.payloadKind == payloadData && payloadChecksum(f.data.Explicit) != f.sum {
		return nil, fmt.Errorf("%w: payload checksum mismatch", errDeltaDiscard)
	}
	switch {
	case f.seq == rx.base:
		// Duplicate of the current stream start: re-deriving dict would be
		// a no-op by construction.
	case f.seq > rx.watermark:
		// Archive the window this reset replaces, then rebase on it, in
		// the buffer of the archive this one supersedes.
		rx.prevBase = rx.base
		rx.prevDict, rx.dict = rx.dict, rx.prevDict[:0]
		rx.base, rx.watermark = f.seq, f.seq
		rx.extendDict(f.data.Explicit)
		for s := range rx.segs {
			if s <= f.seq {
				delete(rx.segs, s)
			}
		}
		if f.seq > rx.highSeen {
			rx.highSeen = f.seq
		}
		rx.drain()
	default:
		// An old reset the stream has moved past: merge its (explicit)
		// payload, touch nothing.
	}
	return f.data.Explicit, nil
}

// commit folds a fresh in-window frame into the stream state.
func (rx *deltaRx) commit(seq uint64, explicit []dataset.Rating) {
	if seq > rx.highSeen {
		rx.highSeen = seq
	}
	if seq == rx.watermark+1 {
		rx.watermark = seq
		rx.extendDict(explicit)
		rx.drain()
		return
	}
	if rx.segs == nil {
		rx.segs = make(map[uint64][]dataset.Rating)
	}
	rx.segs[seq] = slices.Clone(explicit) // explicit is decode scratch
	if rx.highSeen-rx.watermark >= gapResyncThreshold {
		rx.wantResync = true
	}
}

// extendDict appends a frame's explicit entries to the live dictionary. A
// dictionary buffer is allocated when first needed, at the capacity an
// honest sender never exceeds, so appending does not regrow it.
func (rx *deltaRx) extendDict(explicit []dataset.Rating) {
	if cap(rx.dict) == 0 && len(explicit) > 0 {
		rx.dict = make([]dataset.Rating, 0, max(deltaDictCap, len(explicit)))
	}
	rx.dict = append(rx.dict, explicit...)
}

// drain advances the watermark over any now-contiguous buffered segments
// and clears the resync request once the stream has no gap.
func (rx *deltaRx) drain() {
	for {
		seg, ok := rx.segs[rx.watermark+1]
		if !ok {
			break
		}
		delete(rx.segs, rx.watermark+1)
		rx.watermark++
		rx.extendDict(seg)
	}
	if rx.watermark == rx.highSeen {
		rx.wantResync = false
	}
}

// initDelta creates the per-peer delta stream state for every configured
// neighbor, on the protocol thread, before any worker can touch the maps.
// Entries are never created later (a rejoined peer was a neighbor, so its
// streams exist) and never deleted (a dropped peer's streams survive for
// its rejoin; a permanently dead peer's state is idle).
func (r *runner) initDelta(resume bool) {
	r.tx = make(map[int]*deltaTx, len(r.cfg.Neighbors))
	r.rx = make(map[int]*deltaRx, len(r.cfg.Neighbors))
	for _, nb := range r.cfg.Neighbors {
		// A resumed daemon rebuilds delta state from nothing (stream state
		// is deliberately not snapshotted), so its first frame to every
		// peer is a reset; the peers' stale view of this node's stream
		// heals through the resync protocol.
		r.tx[nb] = &deltaTx{pendingReset: resume, dictCap: deltaDictCap}
		r.rx[nb] = &deltaRx{}
	}
}

// deltaSendStats is the per-frame accounting encodeDeltaBody returns.
type deltaSendStats struct {
	refs, explicit int64
	raw            int64 // bytes EncodePayloadAppend's flat frame, behind a kind byte, would have cost
	resync         bool  // frame carried a stream reset
}

// encodeDeltaBody appends the delta frame body for one peer to dst:
// header (sender, degree, flags, payload kind, seq, piggybacked ack),
// then the payload section. Model sections come pre-encoded (they are
// peer-independent and built once per epoch on the protocol thread);
// data sections are split per peer against the stream state. Runs on the
// share goroutine.
func (r *runner) encodeDeltaBody(dst []byte, nb int, p core.Payload) ([]byte, deltaSendStats) {
	tx, rx := r.tx[nb], r.rx[nb]
	tx.seqOut++
	var st deltaSendStats
	// Dictionary overflow check against the worst case (every point
	// explicit): conservative, so a ref-heavy steady state whose dictionary
	// has stopped growing never resets spuriously — until its frames are
	// too far past the stream start for txDict.seqs to count.
	if p.Data != nil && (tx.dict.n+uint32(len(p.Data)) > tx.dictCap ||
		tx.seqOut-tx.lastResetSeq > math.MaxUint32) {
		tx.pendingReset = true
	}
	var flags byte
	if tx.pendingReset {
		flags |= deltaFlagReset
		tx.dict.reset()
		tx.lastResetSeq = tx.seqOut
		tx.pendingReset = false
		st.resync = true
	}
	if rx.wantResync {
		flags |= deltaFlagResyncReq
	}
	st.raw = int64(1 + 9 + payloadBodySize(p)) // kind byte + flat header + flat body

	off := len(dst)
	dst = append(dst, make([]byte, 10)...)
	binary.LittleEndian.PutUint32(dst[off:], uint32(p.From))
	binary.LittleEndian.PutUint32(dst[off+4:], uint32(p.Degree))
	dst[off+8] = flags
	switch {
	case p.Model != nil:
		dst[off+9] = payloadModel
	case p.Data != nil:
		dst[off+9] = payloadData
	default:
		dst[off+9] = payloadEmpty
	}
	dst = binary.AppendUvarint(dst, tx.seqOut)
	dst = binary.AppendUvarint(dst, rx.ackPlus1())
	switch {
	case p.Model != nil:
		dst = append(dst, r.modelSection...)
	case p.Data != nil:
		if tx.dict.slots == nil {
			tx.dict.size(tx.dictCap)
		}
		explicit := p.Data
		var refs []uint32
		switch {
		case flags&deltaFlagReset == 0:
			explicit, refs = tx.split(p.Data)
		case uint32(len(p.Data)) <= tx.dictCap:
			// A reset frame is self-contained: everything explicit, and
			// the dictionary restarts from it.
			for _, rt := range p.Data {
				slot, _, _ := tx.dict.find(rt)
				tx.dict.add(slot, rt, 0)
			}
		default:
			// A sample larger than the whole dictionary is counted, not
			// registered: the count alone makes the next data frame roll
			// over again, so no entry of this one is ever looked up.
			tx.dict.n = uint32(len(p.Data))
		}
		st.explicit, st.refs = int64(len(explicit)), int64(len(refs))
		dst = compress.AppendRatingsColumnar(dst, explicit)
		dst = compress.AppendIndexDeltas(dst, refs)
		dst = binary.LittleEndian.AppendUint32(dst, payloadChecksum(p.Data))
	}
	return dst, st
}

// sectionHeaderMax bounds a model section's header: the form byte and the
// uvarint length.
const sectionHeaderMax = 1 + binary.MaxVarintLen64

// buildModelSection pre-encodes the epoch's (peer-independent) model
// section on the protocol thread: a form byte, a uvarint length, and the
// marshaled parameters, coded as word planes when that actually wins (a
// model of a few rows, or one whose exponents are all over the place, goes
// as it is). The parameters are marshaled into a reused buffer and coded
// straight into the section's; the header, whose length depends on the
// outcome, is then written backwards from the content, so nothing is
// copied to make room for it.
func (r *runner) buildModelSection(p core.Payload) error {
	raw, err := marshalAppend(grow(r.marshalBuf, p.Model.WireSize()), p.Model)
	if err != nil {
		return err
	}
	r.marshalBuf = raw
	var hdr [sectionHeaderMax]byte
	buf := r.planes.Append(append(r.sectionBuf[:0], hdr[:]...), raw)
	hdr[0] = sectionPlanes
	if len(buf)-sectionHeaderMax >= len(raw) {
		buf, hdr[0] = append(buf[:sectionHeaderMax], raw...), sectionRaw
	}
	r.sectionBuf = buf
	n := 1 + binary.PutUvarint(hdr[1:], uint64(len(buf)-sectionHeaderMax))
	r.modelSection = buf[sectionHeaderMax-n:]
	copy(r.modelSection, hdr[:n])
	return nil
}

// decodeDeltaFrame is the gather-side entry: parse, apply the
// piggybacked ack and resync request to the sender state, apply the
// frame to the receiver state, and reconstruct the flat payload. Runs on
// the peer's gather worker. A rejected frame never mutates stream state;
// the runner discards it (errDeltaDiscard folds like a seccha replay)
// and the piggybacked request machinery restores the stream. The payload's
// Data aliases the peer's decode scratch (see deltaRx) and its Model is the
// peer's recvModel entry; slot is the gather worker's scratch.
func (r *runner) decodeDeltaFrame(slot, from int, body []byte) (core.Payload, error) {
	tx, rx := r.tx[from], r.rx[from]
	if tx == nil {
		return core.Payload{}, fmt.Errorf("%w: no stream state for peer", errDeltaDiscard)
	}
	f := &rx.frame
	if err := f.parse(body, &r.gather[slot]); err != nil {
		rx.wantResync = true
		return core.Payload{}, fmt.Errorf("%w: %v", errDeltaDiscard, err)
	}
	// Piggybacked control first: it is valid even on frames whose payload
	// the stream state can no longer decode. Acks only advance (a lower
	// ack on a reordered frame is old news), and never past what was
	// actually sent.
	if f.ackPlus1 > 0 {
		if ack := f.ackPlus1 - 1; ack > tx.ackedSeq && ack <= tx.seqOut {
			tx.ackedSeq = ack
		}
	}
	if f.flags&deltaFlagResyncReq != 0 {
		tx.requestReset()
	}
	p := core.Payload{From: f.from, Degree: f.degree}
	if f.payloadKind == payloadModel {
		// Unmarshal before touching stream state: a frame whose model bytes
		// do not decode is discarded whole, not half-committed (the
		// watermark must never ack a frame that was not merged).
		m := r.recvModel[from]
		if m == nil {
			return core.Payload{}, fmt.Errorf("%w: model payload without NewModel", errDeltaDiscard)
		}
		err := m.Unmarshal(f.modelBytes)
		f.modelBytes = nil // f outlives the round: do not pin the frame
		if err != nil {
			rx.wantResync = true
			return core.Payload{}, fmt.Errorf("%w: unmarshaling model: %v", errDeltaDiscard, err)
		}
		p.Model = m
	}
	sample, err := rx.apply(f)
	if err != nil {
		rx.wantResync = true
		return core.Payload{}, err
	}
	if f.payloadKind == payloadData {
		p.Data = sample
	}
	return p, nil
}
