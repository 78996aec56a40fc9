package sparse

import (
	"fmt"
	"math"
)

// Fill-reducing ordering for symmetric matrices. A complete factorization
// (LDLFactor) stays sparse only under an ordering that keeps its fill down.
// The ordering is computed once per sparsity pattern — the natural
// companion to the symbolic GainPlan — and consumed as a symmetric
// permutation P·A·Pᵀ.
//
// Permutation convention: perm[new] = old, i.e. row new of the permuted
// matrix is row perm[new] of the original. InversePerm flips it.

// MinDegree computes a greedy minimum-degree ordering of the symmetric
// sparsity pattern of a: repeatedly eliminate the vertex of smallest degree
// in the elimination graph, turning its neighborhood into a clique. It
// reduces fill directly (not bandwidth or profile). a's pattern need not be
// symmetric, sorted or free of repeated entries: the ordering is that of the
// symmetric, duplicate-free closure of its off-diagonal entries, which is
// formed first unless a's rows already are one. The ordering is
// deterministic and does not depend on the order of a row's entries.
func MinDegree(a *CSR) []int {
	n := mustSquare(a, "MinDegree")
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: MinDegree: dimension %d exceeds the int32 adjacency lists", n))
	}
	return eliminate(a, false, make([]int, n)).perm
}

// elimination is what the minimum-degree elimination leaves: the ordering
// and, for each supervariable v (named by its lowest member), its weight,
// where its members end in the ordering, its degree when it was eliminated
// and its neighbor list then — the representatives of the supervariables
// below it in L, in no particular order. rep and seen are scratch of n
// entries each that the caller may reuse.
type elimination struct {
	perm, weight, end, deg []int
	adj                    [][]int32
	rep, seen              []int
}

// eliminate orders the pattern of the n×n matrix a into perm, of length n.
// With lower set it orders the closure of a's strict lower triangle alone,
// the matrix AnalyzeLDL factors; otherwise the closure of all of a's
// off-diagonal entries. Its scratch of n entries per array is one
// allocation.
//
// The elimination runs on supervariables. Vertices with the same closed
// neighborhood — the same row pattern, as a bus's θ and V rows have in a gain
// matrix — stay indistinguishable through every elimination, so they are
// merged up front into one weighted vertex, eliminated together, and emitted
// consecutively in index order. The compressed graph is kept explicitly as
// duplicate-free adjacency lists — exact degrees, no quotient-graph
// approximation — and a supervariable's degree is the one each of its
// members has in the uncompressed graph: the summed weight of its neighbors
// plus its other members. The next one comes off a binary heap keyed
// (degree, lowest member index), which is the vertex a one-at-a-time
// elimination with the same tie-break would take next; that elimination then
// takes the rest of the supervariable before anything else, so the two leave
// the same fill, and compression only saves the work. One elimination costs
// the summed length of its neighbors' lists, which on the near-planar graphs
// of power networks stays a small constant.
func eliminate(a *CSR, lower bool, perm []int) elimination {
	n := a.Rows
	scratch := make([]int, 6*n)
	seen, deg, sum, rep, weight, pos := carve(&scratch, n), carve(&scratch, n), carve(&scratch, n),
		carve(&scratch, n), carve(&scratch, n), scratch
	// The pattern is symmetric and stores no entry twice from here on, so a
	// row is a vertex's neighborhood. sum[i] adds up i's closed
	// neighborhood: equal sets have equal sums. a's rows are counted as
	// they are checked, and counted again on the closure where they fail.
	ptr, idx := a.RowPtr, a.ColIdx
	if !countSymmetric(n, ptr, idx, seen, deg, sum) {
		c := closure(a, lower)
		ptr, idx = c.RowPtr, c.ColIdx
		countSymmetric(n, ptr, idx, seen, deg, sum)
	}

	// Supervariables: rep[u] is the lowest-index vertex with u's closed
	// neighborhood and weight[rep] the number of vertices it stands for. Such
	// vertices are adjacent, so v's candidates are its higher neighbors of
	// equal degree and sum, each confirmed member by member. seen[w] == stamp
	// marks w as a member of the set being built; every set takes a fresh
	// stamp, so the array is never cleared.
	stamp := 0
	for v := range rep {
		rep[v], weight[v] = v, 1
	}
	for v := 0; v < n; v++ {
		if rep[v] != v {
			continue
		}
		row, stamped := idx[ptr[v]:ptr[v+1]], false
		for _, u := range row {
			if u <= v || rep[u] != u || deg[u] != deg[v] || sum[u] != sum[v] {
				continue
			}
			if !stamped {
				stamp++
				stamped = true
				for _, w := range row {
					seen[w] = stamp
				}
				seen[v] = stamp
			}
			same := true
			for _, w := range idx[ptr[u]:ptr[u+1]] {
				same = same && seen[w] == stamp
			}
			if same {
				rep[u] = v
				weight[v]++
			}
		}
	}
	// The compressed graph: each representative's representative neighbors,
	// in room for twice as many. A vertex's degree is its row's count: its
	// other members and every member of each neighbor are its neighbors.
	room, reps := 0, 0
	for v := 0; v < n; v++ {
		if rep[v] != v {
			continue
		}
		reps++
		for _, u := range idx[ptr[v]:ptr[v+1]] {
			if u != v && rep[u] == u {
				room += 2
			}
		}
	}
	backing := make([]int32, room)
	adj := make([][]int32, n)
	h := degHeap{heap: make([]uint64, 0, reps), pos: pos}
	for v := 0; v < n; v++ {
		if rep[v] != v {
			continue
		}
		av := backing[:0]
		for _, u := range idx[ptr[v]:ptr[v+1]] {
			if u != v && rep[u] == u {
				av = append(av, int32(u))
			}
		}
		adj[v], backing = av[:len(av):2*len(av)], backing[2*len(av):]
		h.pos[v] = len(h.heap)
		h.heap = append(h.heap, heapKey(deg[v], v))
	}
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.down(i)
	}

	// end[v] is where supervariable v starts in the ordering, and where it
	// ends once the permutation below has placed its members; it takes over
	// sum's array, whose last reader was the merge above. A supervariable's
	// list is never written after its elimination, so it stays behind as its
	// block of L.
	end, placed := sum, 0
	arena := listArena{chunk: room / 4} // a first chunk of half the lists' room
	for len(h.heap) > 0 {
		v := h.pop()
		end[v] = placed
		placed += weight[v]
		nbrs := adj[v]
		for _, u := range nbrs {
			// adj[u] ← (adj[u] ∖ {v}) ∪ (nbrs ∖ {u}).
			stamp++
			au, at := adj[u], 0
			for i, w := range au {
				seen[w] = stamp
				if int(w) == v {
					at = i
				}
			}
			au[at] = au[len(au)-1]
			au = au[:len(au)-1]
			if most := len(au) + len(nbrs) - 1; most > cap(au) {
				au = append(arena.carve(2*most), au...)
			}
			d := deg[u] - weight[v]
			for _, w := range nbrs {
				if w != u && seen[w] != stamp {
					au = append(au, w)
					d += weight[w]
				}
			}
			adj[u], deg[u] = au, d
			h.update(int(u), d)
		}
	}
	for w, v := range rep {
		perm[end[v]] = w
		end[v]++
	}
	return elimination{perm: perm, weight: weight, end: end, deg: deg, adj: adj, rep: rep, seen: seen}
}

// countSymmetric reports whether every row of the n×n pattern ptr/idx
// lists its entries in strictly ascending order and the pattern is
// symmetric — the layout the gain plan builds, which the elimination then
// reads as it is — and counts each row's off-diagonal entries into deg and
// adds up its closed neighborhood into sum on the way, which are whole only
// where it reports true. Rows are matched in one pass: row i's entries below
// the diagonal must meet the entries above the diagonal of rows j < i in
// order, each of which cur[j] points at next. cur is scratch of n entries,
// left zero.
func countSymmetric(n int, ptr, idx, cur, deg, sum []int) bool {
	defer clear(cur)
	for i := 0; i < n; i++ {
		lo, hi := ptr[i], ptr[i+1]
		cur[i] = hi
		d, s := 0, i
		for k := lo; k < hi; k++ {
			j := idx[k]
			switch {
			case k > lo && j <= idx[k-1]:
				return false
			case j < i:
				if c := cur[j]; c == ptr[j+1] || idx[c] != i {
					return false
				}
				cur[j]++
			case j > i && cur[i] == hi:
				cur[i] = k
			}
			if j != i {
				d++
				s += j
			}
		}
		deg[i], sum[i] = d, s
	}
	for j := 0; j < n; j++ {
		if cur[j] != ptr[j+1] {
			return false
		}
	}
	return true
}

// closure returns the symmetric pattern of a's off-diagonal entries, or of
// its strict lower triangle alone if lower is set, sorted and free of
// repeats.
func closure(a *CSR, lower bool) *CSR {
	c := NewCOO(a.Rows, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for _, j := range a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]] {
			if j < i || j > i && !lower {
				c.Add(i, j, 1)
				c.Add(j, i, 1)
			}
		}
	}
	return c.ToCSR()
}

// listArena hands the elimination the adjacency lists that outgrow their
// place, carved from chunks of doubling size so the ordering allocates a
// handful of slices however many lists regrow. A list that moves leaves its
// old place unused; the chunks die with the elimination.
type listArena struct {
	free  []int32
	chunk int
}

// carve returns an empty list of capacity n.
func (a *listArena) carve(n int) []int32 {
	if n > len(a.free) {
		a.chunk = max(2*a.chunk, n)
		a.free = make([]int32, a.chunk)
	}
	list := a.free[:0:n]
	a.free = a.free[n:]
	return list
}

// degHeap is the elimination's indexed binary min-heap over the
// uneliminated supervariables. An entry is the key deg<<32 | v, so one
// comparison orders by (degree, vertex); pos locates a vertex in heap.
type degHeap struct {
	heap []uint64
	pos  []int
}

func heapKey(deg, v int) uint64 { return uint64(deg)<<32 | uint64(v) }

func (h *degHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]&math.MaxUint32], h.pos[h.heap[j]&math.MaxUint32] = i, j
}

func (h *degHeap) up(i int) {
	for i > 0 && h.heap[i] < h.heap[(i-1)/2] {
		h.swap(i, (i-1)/2)
		i = (i - 1) / 2
	}
}

func (h *degHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h.heap) {
			return
		}
		if c+1 < len(h.heap) && h.heap[c+1] < h.heap[c] {
			c++
		}
		if h.heap[c] >= h.heap[i] {
			return
		}
		h.swap(i, c)
		i = c
	}
}

// pop removes and returns the minimum vertex.
func (h *degHeap) pop() int {
	v := int(h.heap[0] & math.MaxUint32)
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.down(0)
	return v
}

// update sets vertex u's degree and restores the heap order.
func (h *degHeap) update(u, deg int) {
	i := h.pos[u]
	old := h.heap[i]
	h.heap[i] = heapKey(deg, u)
	if h.heap[i] < old {
		h.up(i)
	} else if h.heap[i] > old {
		h.down(i)
	}
}

// InversePerm returns the inverse permutation: inv[perm[i]] = i.
func InversePerm(perm []int) []int {
	inv := make([]int, len(perm))
	for i, p := range perm {
		inv[p] = i
	}
	return inv
}

// checkPerm validates that perm is a permutation of 0..n-1.
func checkPerm(perm []int, n int, who string) {
	if len(perm) != n {
		panic(fmt.Sprintf("sparse: %s: permutation length %d != %d", who, len(perm), n))
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			panic(fmt.Sprintf("sparse: %s: invalid permutation entry %d", who, p))
		}
		seen[p] = true
	}
}

// PermuteSym returns P·A·Pᵀ as a new CSR matrix: entry (i, j) of the result
// is A(perm[i], perm[j]). The symmetric two-sided permutation preserves
// symmetry and definiteness, so a solve can run entirely in permuted space.
func PermuteSym(a *CSR, perm []int) *CSR {
	n := mustSquare(a, "PermuteSym")
	checkPerm(perm, n, "PermuteSym")
	inv := InversePerm(perm)
	coo := NewCOO(n, n)
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			coo.Add(inv[i], inv[a.ColIdx[k]], a.Val[k])
		}
	}
	return coo.ToCSR()
}

func mustSquare(a *CSR, who string) int {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("sparse: %s requires a square matrix, got %dx%d", who, a.Rows, a.Cols))
	}
	return a.Rows
}

// carve cuts the first n elements off *s, its capacity clipped to them.
func carve[T any](s *[]T, n int) []T {
	c := (*s)[:n:n]
	*s = (*s)[n:]
	return c
}
