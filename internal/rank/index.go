package rank

import (
	"maps"
	"slices"

	"rex/internal/dataset"
)

// Index is the cached candidate index the serving path ranks against: the
// per-user seen sets (items to exclude — the user's own interactions) and
// the candidate range, precomputed once per ratings snapshot instead of
// rebuilt on every query. Each user's seen items are one ascending span.
// An Index is immutable after construction and safe for concurrent
// readers; results are bit-identical to calling the uncached TopN with
// SeenSet-built exclusions over the same ratings.
//
// Successive snapshots of one dataset.Store share their published prefix,
// so a new snapshot's ratings usually extend the last one's: Next then
// derives the new index from the old, filing only the appended ratings.
type Index struct {
	numItems int
	ratings  []dataset.Rating // what the index covers; Next derives from it
	row      map[uint32]int32 // user -> r
	spans    [][]uint32       // user r's seen items, ascending
	live     int              // entries in spans
	stale    int              // superseded span entries the spans' arrays may still hold
}

// maxStaleShare is the fraction of the span entries an index holds that
// may be stale before Next rebuilds instead of deriving. At one half an
// index holds at most twice the span memory of a fresh build, and a
// rebuild comes only after the derivations since the last one copied at
// least as many entries as it files, so rebuilding at most doubles what a
// chain of derivations costs.
const maxStaleShare = 0.5

// NewIndex builds the index from a ratings snapshot (typically a REX
// node's raw-data store at a training epoch boundary). numItems bounds
// the candidate ids: 0..numItems-1.
func NewIndex(ratings []dataset.Rating, numItems int) *Index {
	ix := &Index{numItems: numItems, ratings: ratings, row: make(map[uint32]int32)}
	catalog := int64(max(numItems, 0))
	// Pass one counts ratings per user (start[r+1]) and per item (byItem[i+1]).
	// A store holds runs of one user's ratings, so remembering the last row
	// spares most map probes. An item outside the catalog is never asked about.
	start := []uint32{0}
	byItem := make([]uint32, catalog+1)
	var lastUser uint32
	last := int32(-1)
	for _, r := range ratings {
		if int64(r.Item) >= catalog {
			continue
		}
		if last < 0 || r.User != lastUser {
			row, ok := ix.row[r.User]
			if !ok {
				row = int32(len(start) - 1)
				ix.row[r.User] = row
				start = append(start, 0)
			}
			lastUser, last = r.User, row
		}
		start[last+1]++
		byItem[r.Item+1]++
	}
	for r := 1; r < len(start); r++ {
		start[r] += start[r-1]
	}
	for i := 1; i < len(byItem); i++ {
		byItem[i] += byItem[i-1]
	}
	// Pass two files each rating's row under its item, byItem[i] advancing
	// from the start of item i's group to its end. Reading the groups back in
	// item order hands every user their items ascending: a counting sort,
	// where sorting span by span cost four times the rest of the build.
	rows := make([]int32, byItem[catalog])
	last = -1
	for _, r := range ratings {
		if int64(r.Item) >= catalog {
			continue
		}
		if last < 0 || r.User != lastUser {
			lastUser, last = r.User, ix.row[r.User]
		}
		rows[byItem[r.Item]] = last
		byItem[r.Item]++
	}
	items := make([]uint32, len(rows))
	next := slices.Clone(start[:len(start)-1])
	p := uint32(0)
	for item, end := range byItem[:catalog] {
		for ; p < end; p++ {
			items[next[rows[p]]] = uint32(item)
			next[rows[p]]++
		}
	}
	ix.spans = make([][]uint32, len(start)-1)
	for r := range ix.spans {
		ix.spans[r] = items[start[r]:start[r+1]]
	}
	ix.live = len(items)
	return ix
}

// Next returns the index over ratings, exactly NewIndex(ratings,
// numItems). When ratings extends the slice ix covers — the same backing
// array and at least as long, as a store's snapshots are until an
// overwrite copies it or an append moves it — the two share every span
// the appended ratings leave alone: only the users those ratings touch get
// new spans, packed into one array, and ix stays intact for readers still
// holding it. This relies on ratings handed to an index never being
// written afterwards. A nil ix, another numItems, a slice that does not
// extend, and stale entries past maxStaleShare all build afresh.
func (ix *Index) Next(ratings []dataset.Rating, numItems int) *Index {
	if ix == nil || numItems != ix.numItems || len(ix.ratings) == 0 ||
		len(ratings) < len(ix.ratings) || &ratings[0] != &ix.ratings[0] {
		return NewIndex(ratings, numItems)
	}
	if len(ratings) == len(ix.ratings) {
		return ix
	}
	// One key per appended in-catalog rating: row<<32 | item. A user new to
	// the index takes the next row, in order of first appearance as in
	// NewIndex, in a copy of the row map.
	suffix := ratings[len(ix.ratings):]
	row, rows := ix.row, int32(len(ix.spans))
	keys := make([]uint64, 0, len(suffix))
	var lastUser uint32
	last := int32(-1)
	for _, r := range suffix {
		if int64(r.Item) >= int64(numItems) {
			continue
		}
		if last < 0 || r.User != lastUser {
			rw, ok := row[r.User]
			if !ok {
				if int(rows) == len(ix.spans) {
					row = maps.Clone(ix.row)
				}
				rw = rows
				row[r.User] = rw
				rows++
			}
			lastUser, last = r.User, rw
		}
		keys = append(keys, uint64(last)<<32|uint64(r.Item))
	}
	slices.Sort(keys)
	superseded := 0
	for i := 0; i < len(keys); {
		r := keys[i] >> 32
		if r < uint64(len(ix.spans)) {
			superseded += len(ix.spans[r])
		}
		for i < len(keys) && keys[i]>>32 == r {
			i++
		}
	}
	nx := &Index{numItems: numItems, ratings: ratings, row: row, live: ix.live + len(keys), stale: ix.stale + superseded}
	if float64(nx.stale) > maxStaleShare*float64(nx.stale+nx.live) {
		return NewIndex(ratings, numItems)
	}
	// Each touched span is its old items merged with its new ones.
	packed := make([]uint32, len(keys)+superseded)
	nx.spans = make([][]uint32, rows)
	copy(nx.spans, ix.spans)
	p := 0
	for i := 0; i < len(keys); {
		r := keys[i] >> 32
		var old []uint32
		if r < uint64(len(ix.spans)) {
			old = ix.spans[r]
		}
		from, a := p, 0
		for ; i < len(keys) && keys[i]>>32 == r; i++ {
			item := uint32(keys[i])
			for a < len(old) && old[a] <= item {
				packed[p] = old[a]
				a, p = a+1, p+1
			}
			packed[p] = item
			p++
		}
		p += copy(packed[p:], old[a:])
		nx.spans[r] = packed[from:p]
	}
	return nx
}

// TopN ranks the n best unseen items for the user under the given
// predictor — exactly TopN(m, user, ix.NumItems(), n, SeenSet(ratings,
// user)) over the indexed ratings, with the seen set coming from the cache
// instead of a per-query scan. An unknown user has seen nothing.
func (ix *Index) TopN(m Predictor, user uint32, n int) []Item {
	var seen []uint32
	if r, ok := ix.row[user]; ok {
		seen = ix.spans[r]
	}
	return topN(m, user, ix.numItems, n, func(id uint32) bool {
		_, found := slices.BinarySearch(seen, id)
		return found
	})
}
