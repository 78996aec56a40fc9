package sparse

import "fmt"

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
// reduces fill directly (not bandwidth or profile). The elimination
// graph is kept explicitly as duplicate-free adjacency slices — exact
// degrees, no quotient-graph approximation — and the next vertex comes off
// a binary heap keyed (degree, index), so ties break on the lower vertex
// index and the ordering is deterministic. One elimination costs the
// summed length of its neighbors' lists, which on the near-planar graphs
// of power networks stays a small constant.
func MinDegree(a *CSR) []int {
	n := mustSquare(a, "MinDegree")
	// Symmetrize defensively: every off-diagonal entry contributes both
	// directions, then each list drops its duplicates.
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
	backing := make([]int, cnt[n])
	adj := make([][]int, n)
	for i := range adj {
		adj[i] = backing[cnt[i]:cnt[i]:cnt[i+1]]
	}
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if j := a.ColIdx[k]; j != i {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	// seen[w] == stamp marks w as a member of the set being built; every
	// set takes a fresh stamp, so the array is never cleared.
	seen, stamp := make([]int, n), 0
	h := degHeap{heap: make([]int, n), pos: make([]int, n), deg: make([]int, n)}
	for i, ai := range adj {
		stamp++
		k := 0
		for _, w := range ai {
			if seen[w] != stamp {
				seen[w] = stamp
				ai[k] = w
				k++
			}
		}
		adj[i] = ai[:k]
		h.deg[i] = k
		h.heap[i], h.pos[i] = i, i
	}
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i)
	}

	perm := make([]int, 0, n)
	for len(h.heap) > 0 {
		v := h.pop()
		perm = append(perm, v)
		nbrs := adj[v]
		for _, u := range nbrs {
			// adj[u] ← (adj[u] ∖ {v}) ∪ (nbrs ∖ {u}).
			stamp++
			au, at := adj[u], 0
			for i, w := range au {
				seen[w] = stamp
				if w == v {
					at = i
				}
			}
			au[at] = au[len(au)-1]
			au = au[:len(au)-1]
			for _, w := range nbrs {
				if w != u && seen[w] != stamp {
					au = append(au, w)
				}
			}
			adj[u] = au
			h.update(u, len(au))
		}
		adj[v] = nil
	}
	return perm
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
