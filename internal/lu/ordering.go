package lu

import (
	"cmp"
	"container/heap"
	"math"
	"slices"

	"masc/internal/sparse"
)

// Ordering names the column ordering AMD implements. Journals record it with
// a hash of the permutation so a run is never resumed under a different
// numeric plan.
const Ordering = "amd"

// AMD computes an approximate minimum degree ordering of the symmetrized
// pattern A + Aᵀ (Amestoy, Davis & Duff, SIAM J. Matrix Anal. Appl. 1996; the
// ordering KLU applies to circuit matrices). The returned permutation lists
// original indices in elimination order and is suitable as Options.ColPerm.
//
// Elimination runs on the quotient graph: an eliminated variable becomes an
// element whose variable list stands for the clique it would have formed, so
// no clique is ever stored. A new element's list replaces the lists of the
// elements it absorbs, keeping live storage within nnz(A + Aᵀ). Degrees are
// Amestoy–Davis–Duff approximate external degrees; elements whose variables
// all lie in the new element are absorbed into it (aggressive absorption);
// indistinguishable variables merge into supervariables and variables
// adjacent only to the new element are eliminated with the pivot (mass
// elimination). Rows with more than max(16, 10·√n) off-diagonal entries take
// no part and are ordered last. Ties go to the lowest index and nothing
// iterates a map, so the permutation is a pure function of the pattern.
func AMD(p *sparse.Pattern) []int32 {
	g := newQuotientGraph(p)
	return g.eliminate()
}

// quotientGraph is AMD's working state. A node is a variable until it is
// eliminated, then an element; nv > 0 exactly for principal variables.
type quotientGraph struct {
	adj   [][]int32 // A_i: variables adjacent to variable i, pruned as elements cover them
	elems [][]int32 // E_i: live elements adjacent to variable i
	vars  [][]int32 // L_e: principal variables of element e (nil once absorbed)
	nv    []int32   // supervariable weight; 0 once merged, eliminated or dense
	deg   []int32   // approximate external degree (variable) or weighted |L_e| (element)
	dead  []bool    // element absorbed into a later one

	w      []int32 // |L_e \ L_p| for elements touched in the current round
	wRound []int32
	inLp   []int32 // round in which a variable joined L_p
	mark   []int32 // stamps for the supervariable comparison
	stamp  int32
	hash   []uint32

	next, tail []int32 // member chains of supervariables, for the output order
	dense      []int32
	heap       degreeHeap
}

func newQuotientGraph(p *sparse.Pattern) *quotientGraph {
	n := p.N
	// Symmetric adjacency without self loops: row i of A plus the entries of
	// column i whose mirror (i,j) is absent.
	cnt := make([]int32, n+1)
	tr := p.TransposeSlots()
	for i := int32(0); i < int32(n); i++ {
		for k := p.RowPtr[i]; k < p.RowPtr[i+1]; k++ {
			if j := p.ColIdx[k]; j != i {
				cnt[i+1]++
				if tr[k] < 0 {
					cnt[j+1]++
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		cnt[i+1] += cnt[i]
	}
	flat := make([]int32, cnt[n])
	fill := append([]int32(nil), cnt[:n]...)
	for i := int32(0); i < int32(n); i++ {
		for k := p.RowPtr[i]; k < p.RowPtr[i+1]; k++ {
			if j := p.ColIdx[k]; j != i {
				flat[fill[i]] = j
				fill[i]++
				if tr[k] < 0 {
					flat[fill[j]] = i
					fill[j]++
				}
			}
		}
	}

	g := &quotientGraph{
		adj:    make([][]int32, n),
		elems:  make([][]int32, n),
		vars:   make([][]int32, n),
		nv:     make([]int32, n),
		deg:    make([]int32, n),
		dead:   make([]bool, n),
		w:      make([]int32, n),
		wRound: make([]int32, n),
		inLp:   make([]int32, n),
		mark:   make([]int32, n),
		hash:   make([]uint32, n),
		next:   make([]int32, n),
		tail:   make([]int32, n),
		heap:   newDegreeHeap(n),
	}
	denseLimit := int32(max(16, 10*math.Sqrt(float64(n))))
	for i := range g.adj {
		g.adj[i] = flat[cnt[i]:cnt[i+1]:cnt[i+1]]
		g.next[i], g.tail[i] = -1, int32(i)
		if int32(len(g.adj[i])) > denseLimit {
			g.dense = append(g.dense, int32(i))
		} else {
			g.nv[i] = 1
		}
	}
	for i, a := range g.adj {
		if g.nv[i] == 0 {
			continue
		}
		for _, j := range a {
			g.deg[i] += g.nv[j]
		}
		g.heap.push(int32(i), g.deg[i])
	}
	return g
}

// eliminate runs minimum degree elimination to completion and returns the
// ordering: each pivot followed by the variables merged into it and those
// mass-eliminated with it, then the dense rows.
func (g *quotientGraph) eliminate() []int32 {
	n := len(g.nv)
	order := make([]int32, 0, n)
	emit := func(i int32) {
		for ; i >= 0; i = g.next[i] {
			order = append(order, i)
		}
	}
	nleft := int32(n - len(g.dense))
	var lp, survivors []int32
	for round := int32(1); g.heap.Len() > 0; round++ {
		p := g.heap.pop()
		emit(p)
		nleft -= g.nv[p]
		g.nv[p] = 0
		g.inLp[p] = round

		// L_p: the variables of every element adjacent to p (all absorbed
		// into p) plus p's remaining variable neighbours.
		lp = lp[:0]
		add := func(j int32) {
			if g.nv[j] > 0 && g.inLp[j] != round {
				g.inLp[j] = round
				lp = append(lp, j)
			}
		}
		for _, e := range g.elems[p] {
			if !g.dead[e] {
				for _, j := range g.vars[e] {
					add(j)
				}
				g.absorb(e)
			}
		}
		for _, j := range g.adj[p] {
			add(j)
		}
		g.elems[p], g.adj[p] = nil, nil
		degme := int32(0)
		for _, i := range lp {
			degme += g.nv[i]
			g.heap.remove(i)
		}

		// w(e) = |L_e \ L_p| for every live element meeting L_p.
		for _, i := range lp {
			for _, e := range g.elems[i] {
				if g.dead[e] {
					continue
				}
				if g.wRound[e] != round {
					g.wRound[e], g.w[e] = round, g.deg[e]
				}
				g.w[e] -= g.nv[i]
			}
		}

		// Prune every i ∈ L_p, bound its external degree outside L_p, and
		// absorb elements wholly inside L_p.
		survivors = survivors[:0]
		for _, i := range lp {
			ext := int32(0)
			es := g.elems[i][:0]
			for _, e := range g.elems[i] {
				switch {
				case g.dead[e]:
				case g.w[e] > 0:
					ext += g.w[e]
					es = append(es, e)
				default:
					g.absorb(e)
				}
			}
			es = append(es, p)
			as := g.adj[i][:0]
			for _, j := range g.adj[i] {
				if g.nv[j] > 0 && g.inLp[j] != round {
					ext += g.nv[j]
					as = append(as, j)
				}
			}
			g.elems[i], g.adj[i] = es, as
			if len(es) == 1 && len(as) == 0 {
				// Adjacent to p alone: eliminating i with p adds no fill.
				emit(i)
				nleft -= g.nv[i]
				degme -= g.nv[i]
				g.nv[i] = 0
				g.elems[i], g.adj[i] = nil, nil
				continue
			}
			g.deg[i] = min(g.deg[i], ext)
			var h uint32
			for _, e := range es {
				h += uint32(e)
			}
			for _, j := range as {
				h += uint32(j)
			}
			g.hash[i] = h
			survivors = append(survivors, i)
		}
		g.mergeIndistinguishable(survivors)

		// Finalize element p and re-queue its variables.
		vs := make([]int32, 0, len(lp))
		for _, i := range lp {
			if g.nv[i] > 0 {
				vs = append(vs, i)
				g.deg[i] = min(g.deg[i]+degme-g.nv[i], nleft-g.nv[i])
				g.heap.push(i, g.deg[i])
			}
		}
		g.vars[p], g.deg[p] = vs, degme
	}
	return append(order, g.dense...)
}

func (g *quotientGraph) absorb(e int32) {
	g.dead[e] = true
	g.vars[e] = nil
}

// mergeIndistinguishable folds together variables of L_p with identical
// element and variable lists: they would be eliminated consecutively with
// no extra fill, so one supervariable stands for all of them. Candidates
// are compared only within equal hashes, visited in (hash, index) order.
func (g *quotientGraph) mergeIndistinguishable(vs []int32) {
	slices.SortFunc(vs, func(a, b int32) int {
		return cmp.Or(cmp.Compare(g.hash[a], g.hash[b]), cmp.Compare(a, b))
	})
	for lo := 0; lo < len(vs); {
		hi := lo + 1
		for hi < len(vs) && g.hash[vs[hi]] == g.hash[vs[lo]] {
			hi++
		}
		for a := lo; a < hi-1; a++ {
			i := vs[a]
			if g.nv[i] == 0 {
				continue
			}
			g.stamp++
			for _, x := range g.elems[i] {
				g.mark[x] = g.stamp
			}
			for _, x := range g.adj[i] {
				g.mark[x] = g.stamp
			}
			for _, j := range vs[a+1 : hi] {
				if g.nv[j] == 0 || len(g.elems[j]) != len(g.elems[i]) || len(g.adj[j]) != len(g.adj[i]) ||
					!g.allMarked(g.elems[j]) || !g.allMarked(g.adj[j]) {
					continue
				}
				g.nv[i] += g.nv[j]
				g.nv[j] = 0
				g.next[g.tail[i]] = j
				g.tail[i] = g.tail[j]
				g.elems[j], g.adj[j] = nil, nil
			}
		}
		lo = hi
	}
}

func (g *quotientGraph) allMarked(xs []int32) bool {
	for _, x := range xs {
		if g.mark[x] != g.stamp {
			return false
		}
	}
	return true
}

// degreeHeap is a container/heap of queued variables keyed by
// (degree, index), so the minimum-degree pick breaks ties by lowest index.
// pos tracks each variable's heap slot so re-keyed variables can be removed.
type degreeHeap struct {
	node []int32 // heap order
	key  []int32 // key[i]: degree of variable i while queued
	pos  []int32 // pos[i]: slot of i in node, -1 when not queued
}

func newDegreeHeap(n int) degreeHeap {
	h := degreeHeap{node: make([]int32, 0, n), key: make([]int32, n), pos: make([]int32, n)}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

func (h *degreeHeap) Len() int { return len(h.node) }

func (h *degreeHeap) Less(a, b int) bool {
	x, y := h.node[a], h.node[b]
	return h.key[x] < h.key[y] || (h.key[x] == h.key[y] && x < y)
}

func (h *degreeHeap) Swap(a, b int) {
	h.node[a], h.node[b] = h.node[b], h.node[a]
	h.pos[h.node[a]], h.pos[h.node[b]] = int32(a), int32(b)
}

func (h *degreeHeap) Push(x any) {
	i := x.(int32)
	h.pos[i] = int32(len(h.node))
	h.node = append(h.node, i)
}

func (h *degreeHeap) Pop() any {
	i := h.node[len(h.node)-1]
	h.node = h.node[:len(h.node)-1]
	h.pos[i] = -1
	return i
}

func (h *degreeHeap) push(i, key int32) {
	h.key[i] = key
	heap.Push(h, i)
}

func (h *degreeHeap) pop() int32 { return heap.Pop(h).(int32) }

// remove takes i out of the heap; a variable not queued is left alone.
func (h *degreeHeap) remove(i int32) {
	if h.pos[i] >= 0 {
		heap.Remove(h, int(h.pos[i]))
	}
}
