package coord

import (
	"math/bits"
	"slices"

	"ccncoord/internal/catalog"
)

// Count is one content's observed request count.
type Count struct {
	ID catalog.ID
	N  int64
}

// cmpRank orders counts by descending N, breaking ties by ascending id.
// Ids are unique within one ranking, so the order is total: every
// correct selection or sort yields the same sequence, which is what
// keeps placements deterministic. Spelled out rather than composed from
// cmp.Compare: it is the epoch's inner loop, and the composition
// measured 15 % slower per epoch.
func cmpRank(a, b Count) int {
	switch {
	case a.N > b.N:
		return -1
	case a.N < b.N:
		return 1
	case a.ID < b.ID:
		return -1
	case a.ID > b.ID:
		return 1
	}
	return 0
}

// rankTop reorders counts in place so that its first k elements are the
// k highest-ranked in rank order, and returns that prefix. A negative k,
// or one beyond len(counts), ranks everything. Only the prefix is
// sorted: a placement never reads past its local + n*coordinated slots,
// so the long tail of once-seen contents costs one partition pass, not
// a sort.
func rankTop(counts []Count, k int) []Count {
	if k < 0 || k > len(counts) {
		k = len(counts)
	}
	// Quickselect narrows the window [lo, hi) holding the k-th boundary
	// until the k best occupy counts[:k]. A small window — or one an
	// adversarial input kept large past the round budget — is sorted
	// outright.
	lo, hi := 0, len(counts)
	for rounds := 2 * bits.Len(uint(hi)); lo < k && k < hi; rounds-- {
		if rounds == 0 || hi-lo <= 32 {
			slices.SortFunc(counts[lo:hi], cmpRank)
			break
		}
		switch p := lo + partition(counts[lo:hi]); {
		case p < k:
			lo = p + 1
		case p > k:
			hi = p
		default:
			lo = k
		}
	}
	top := counts[:k]
	slices.SortFunc(top, cmpRank)
	return top
}

// partition splits w around its middle element and returns the pivot's
// final index: everything before it ranks ahead of it, everything after
// it behind. The middle keeps already-ranked input balanced; rankTop's
// round budget covers the inputs it does not.
func partition(w []Count) int {
	last := len(w) - 1
	w[last/2], w[last] = w[last], w[last/2]
	pivot := w[last]
	store := 0
	for i := 0; i < last; i++ {
		if cmpRank(w[i], pivot) < 0 {
			w[i], w[store] = w[store], w[i]
			store++
		}
	}
	w[store], w[last] = w[last], w[store]
	return store
}

// countsOf flattens a count map into the pair form the ranking kernel
// works on. Map order is irrelevant: the ranking is a total order.
func countsOf(m map[catalog.ID]int64) []Count {
	counts := make([]Count, 0, len(m))
	for id, n := range m {
		counts = append(counts, Count{ID: id, N: n})
	}
	return counts
}
