package coord

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ccncoord/internal/catalog"
)

// rankByCountOracle is the ranking this package shipped before the
// pair-comparing kernel: a full sort of the ids with the count map
// consulted inside the comparator. Kept as the reference rankTop is
// tested against.
func rankByCountOracle(counts map[catalog.ID]int64) []catalog.ID {
	ids := make([]catalog.ID, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if counts[ids[i]] != counts[ids[j]] {
			return counts[ids[i]] > counts[ids[j]]
		}
		return ids[i] < ids[j]
	})
	return ids
}

func idsOf(counts []Count) []catalog.ID {
	ids := make([]catalog.ID, len(counts))
	for i, c := range counts {
		ids[i] = c.ID
	}
	return ids
}

// checkRankTop compares rankTop's prefix with the oracle's for every
// boundary k, and checks that the reordering kept every pair.
func checkRankTop(t *testing.T, name string, m map[catalog.ID]int64) {
	t.Helper()
	want := rankByCountOracle(m)
	n := len(m)
	for _, k := range []int{0, 1, n - 1, n, n + 5, -1} {
		counts := countsOf(m)
		got := idsOf(rankTop(counts, k))
		wantK := want
		if k >= 0 && k < n {
			wantK = want[:k]
		}
		if !slices.Equal(got, wantK) {
			t.Fatalf("%s: rankTop(k=%d) over %d contents diverges from the oracle\n got %v\nwant %v", name, k, n, got, wantK)
		}
		for _, c := range counts {
			if m[c.ID] != c.N {
				t.Fatalf("%s: rankTop(k=%d) corrupted the pair for content %d: %d, want %d", name, k, c.ID, c.N, m[c.ID])
			}
		}
		if len(counts) != n {
			t.Fatalf("%s: rankTop(k=%d) changed the length to %d, want %d", name, k, len(counts), n)
		}
	}
}

// TestRankTopMatchesOracle is the ranking differential: 10³ seeded
// count maps dominated by ties — the regime where a comparator that
// forgot the id tie-break would still pass a Zipf-only test.
func TestRankTopMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20130708))
	for trial := 0; trial < 1000; trial++ {
		size := 1 + rng.Intn(400)
		levels := int64(1 + rng.Intn(4)) // at most four distinct counts
		m := make(map[catalog.ID]int64, size)
		for len(m) < size {
			m[catalog.ID(1+rng.Intn(5000))] = rng.Int63n(levels)
		}
		checkRankTop(t, "seeded", m)
	}
}

// TestRankTopStructuredInputs feeds the shapes that defeat a naive
// pivot: already ranked, reverse ranked, all equal, organ pipe. Maps
// randomize order, so the slices are built directly.
func TestRankTopStructuredInputs(t *testing.T) {
	const n = 5000
	shapes := map[string]func(i int) int64{
		"ranked":    func(i int) int64 { return int64(n - i) },
		"reversed":  func(i int) int64 { return int64(i) },
		"all-equal": func(int) int64 { return 3 },
		"organ-pipe": func(i int) int64 {
			if i < n/2 {
				return int64(i)
			}
			return int64(n - i)
		},
	}
	for name, count := range shapes {
		m := make(map[catalog.ID]int64, n)
		base := make([]Count, n)
		for i := range base {
			base[i] = Count{ID: catalog.ID(i + 1), N: count(i)}
			m[base[i].ID] = base[i].N
		}
		want := rankByCountOracle(m)
		for _, k := range []int{1, 75, n / 2, n - 1, -1} {
			got := idsOf(rankTop(slices.Clone(base), k))
			wantK := want
			if k >= 0 {
				wantK = want[:k]
			}
			if !slices.Equal(got, wantK) {
				t.Errorf("%s: rankTop(k=%d) diverges from the oracle", name, k)
			}
		}
	}
}

// TestPlaceByCountMatchesOracle pins the one placement path against the
// old full-ranking construction, including slot counts that exceed the
// observed contents and sums that overflow.
func TestPlaceByCountMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rs := routers(4)
	for trial := 0; trial < 200; trial++ {
		m := make(map[catalog.ID]int64)
		for i, size := 0, rng.Intn(120); i < size; i++ {
			m[catalog.ID(1+rng.Intn(300))] = rng.Int63n(5)
		}
		for _, slots := range [][2]int64{{0, 0}, {3, 2}, {10, 40}, {200, 1}, {1 << 62, 1 << 62}, {0, 1 << 62}} {
			local, coordinated := slots[0], slots[1]
			ranked := rankByCountOracle(m)
			wantLocal := ranked[:min(local, int64(len(ranked)))]
			wantAsg, err := StripeByRank(rs, ranked[len(wantLocal):], coordinated)
			if err != nil {
				t.Fatal(err)
			}
			p, err := placeByCount(countsOf(m), rs, local, coordinated)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(p.LocalSet, wantLocal) {
				t.Fatalf("slots %v: local set %v, want %v", slots, p.LocalSet, wantLocal)
			}
			for _, r := range rs {
				if got, want := p.Assignment.Contents(r), wantAsg.Contents(r); !slices.Equal(got, want) {
					t.Fatalf("slots %v: router %d holds %v, want %v", slots, r, got, want)
				}
			}
		}
	}
}
