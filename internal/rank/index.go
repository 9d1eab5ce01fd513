package rank

import (
	"slices"

	"rex/internal/dataset"
)

// Index is the cached candidate index the serving path ranks against: the
// per-user seen sets (items to exclude — the user's own interactions) and
// the candidate range, precomputed once per model snapshot instead of
// rebuilt on every query. The seen sets are one flat array, each user's
// items in an ascending span of it. An Index is immutable after
// construction and safe for concurrent readers; results are bit-identical
// to calling the uncached TopN with SeenSet-built exclusions over the same
// ratings.
type Index struct {
	numItems int
	row      map[uint32]int32 // user -> r
	start    []uint32         // user r's span is items[start[r]:start[r+1]]
	items    []uint32
}

// NewIndex builds the index from a ratings snapshot (typically a REX
// node's raw-data store at a training epoch boundary). numItems bounds
// the candidate ids: 0..numItems-1.
func NewIndex(ratings []dataset.Rating, numItems int) *Index {
	ix := &Index{numItems: numItems, row: make(map[uint32]int32)}
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
	ix.items = make([]uint32, len(rows))
	next := slices.Clone(start[:len(start)-1])
	p := uint32(0)
	for item, end := range byItem[:catalog] {
		for ; p < end; p++ {
			ix.items[next[rows[p]]] = uint32(item)
			next[rows[p]]++
		}
	}
	ix.start = start
	return ix
}

// TopN ranks the n best unseen items for the user under the given
// predictor — exactly TopN(m, user, ix.NumItems(), n, SeenSet(ratings,
// user)) over the indexed ratings, with the seen set coming from the cache
// instead of a per-query scan. An unknown user has seen nothing.
func (ix *Index) TopN(m Predictor, user uint32, n int) []Item {
	var seen []uint32
	if r, ok := ix.row[user]; ok {
		seen = ix.items[ix.start[r]:ix.start[r+1]]
	}
	return topN(m, user, ix.numItems, n, func(id uint32) bool {
		_, found := slices.BinarySearch(seen, id)
		return found
	})
}
