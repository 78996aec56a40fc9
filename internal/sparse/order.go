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
// reduces fill directly (not bandwidth or profile).
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
// the same fill, and compression only saves the work. The ordering is
// deterministic and does not depend on the order of a's rows' entries, which
// need not be sorted. One elimination costs the summed length of its
// neighbors' lists, which on the near-planar graphs of power networks stays a
// small constant.
func MinDegree(a *CSR) []int {
	n := mustSquare(a, "MinDegree")
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: MinDegree: dimension %d exceeds the int32 adjacency lists", n))
	}
	// Symmetrize defensively: every off-diagonal entry contributes both
	// directions, then each list drops its duplicates. On a symmetric input
	// that leaves every list half its capacity to grow into.
	cnt := make([]int, n+1)
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if j := a.ColIdx[k]; j != i {
				cnt[i+1]++
				cnt[j+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		cnt[i+1] += cnt[i]
	}
	backing := make([]int32, cnt[n])
	adj := make([][]int32, n)
	for i := range adj {
		adj[i] = backing[cnt[i]:cnt[i]:cnt[i+1]]
	}
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if j := a.ColIdx[k]; j != i {
				adj[i] = append(adj[i], int32(j))
				adj[j] = append(adj[j], int32(i))
			}
		}
	}
	// seen[w] == stamp marks w as a member of the set being built; every
	// set takes a fresh stamp, so the array is never cleared. sum[i] adds up
	// i's closed neighborhood: equal sets have equal sums.
	seen, stamp := make([]int, n), 0
	sum := cnt[:n] // the offsets are in adj's slice headers now
	for i, ai := range adj {
		stamp++
		k, s := 0, i
		for _, w := range ai {
			if seen[w] != stamp {
				seen[w] = stamp
				ai[k] = w
				k++
				s += int(w)
			}
		}
		adj[i], sum[i] = ai[:k], s
	}

	// Supervariables: rep[u] is the lowest-index vertex with u's closed
	// neighborhood and weight[rep] the number of vertices it stands for. Such
	// vertices are adjacent, so v's candidates are its higher neighbors of
	// equal list length and sum, each confirmed member by member.
	rep, weight := make([]int, n), make([]int, n)
	for v := range rep {
		rep[v], weight[v] = v, 1
	}
	for v, av := range adj {
		if rep[v] != v {
			continue
		}
		stamped := false
		for _, u := range av {
			if int(u) < v || rep[u] != int(u) || len(adj[u]) != len(av) || sum[u] != sum[v] {
				continue
			}
			if !stamped {
				stamp++
				stamped, seen[v] = true, stamp
				for _, w := range av {
					seen[w] = stamp
				}
			}
			same := true
			for _, w := range adj[u] {
				same = same && seen[w] == stamp
			}
			if same {
				rep[u] = v
				weight[v]++
			}
		}
	}
	// The compressed graph: representatives only, lists in place.
	h := degHeap{heap: make([]int, 0, n), pos: make([]int, n), deg: make([]int, n)}
	for v, av := range adj {
		if rep[v] != v {
			adj[v] = nil
			continue
		}
		k, d := 0, weight[v]-1 // v's other members are its neighbors too
		for _, u := range av {
			if rep[u] == int(u) {
				av[k] = u
				k++
				d += weight[u]
			}
		}
		adj[v], h.deg[v] = av[:k], d
		h.pos[v] = len(h.heap)
		h.heap = append(h.heap, v)
	}
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.down(i)
	}

	// first[v] is where supervariable v's members start in the ordering; it
	// takes over sum's array, whose last reader was the merge above.
	first, placed := sum, 0
	var arena listArena
	for len(h.heap) > 0 {
		v := h.pop()
		first[v] = placed
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
			d := h.deg[u] - weight[v]
			for _, w := range nbrs {
				if w != u && seen[w] != stamp {
					au = append(au, w)
					d += weight[w]
				}
			}
			adj[u] = au
			h.update(int(u), d)
		}
		adj[v] = nil
	}
	perm := make([]int, n)
	for w, v := range rep {
		perm[first[v]] = w
		first[v]++
	}
	return perm
}

// listArena hands MinDegree the adjacency lists that outgrow their place,
// carved from chunks of doubling size so the ordering allocates a handful of
// slices however many lists regrow. A list that moves leaves its old place
// unused; the chunks die with the call.
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

// degHeap is MinDegree's indexed binary min-heap over the uneliminated
// vertices, ordered by (deg, vertex); pos locates a vertex in heap.
type degHeap struct {
	heap, pos, deg []int
}

func (h *degHeap) less(i, j int) bool {
	u, v := h.heap[i], h.heap[j]
	return h.deg[u] < h.deg[v] || (h.deg[u] == h.deg[v] && u < v)
}

func (h *degHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]], h.pos[h.heap[j]] = i, j
}

func (h *degHeap) up(i int) {
	for i > 0 && h.less(i, (i-1)/2) {
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
		if c+1 < len(h.heap) && h.less(c+1, c) {
			c++
		}
		if !h.less(c, i) {
			return
		}
		h.swap(i, c)
		i = c
	}
}

// pop removes and returns the minimum vertex.
func (h *degHeap) pop() int {
	v := h.heap[0]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.down(0)
	return v
}

// update sets vertex u's degree and restores the heap order.
func (h *degHeap) update(u, deg int) {
	old := h.deg[u]
	h.deg[u] = deg
	if deg < old {
		h.up(h.pos[u])
	} else if deg > old {
		h.down(h.pos[u])
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
