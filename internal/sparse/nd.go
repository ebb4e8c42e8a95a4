package sparse

import "sort"

// NestedDissection computes a fill-reducing ordering for the symmetric
// sparsity pattern of a by recursive graph bisection (George's nested
// dissection): a BFS level structure from a pseudo-peripheral vertex
// supplies a small separator, the two halves are ordered recursively, and
// the separator is numbered last. Mesh-like graphs (PDN and thermal grids)
// get near-optimal fill.
//
// Hub vertices — those with deg² > n, such as the package nodes that tie a
// PDN's pads together — are left out of the dissected graph and numbered
// last, in ascending index order. Eliminating a degree-d vertex early can
// create up to d²/2 fill, while numbering it last costs at most n−1 factor
// entries. The returned slice maps old index i to new index perm[i].
func NestedDissection(a *CSR) []int {
	n := a.N()
	nd := &ndState{
		a:       a,
		inSet:   make([]int, n),
		visit:   make([]int, n),
		level:   make([]int, n),
		queue:   make([]int, 0, n),
		ordered: make([]int, 0, n),
	}
	for i := range nd.inSet {
		nd.inSet[i] = -1
		nd.visit[i] = -1
	}
	// Hubs are marked seen up front, so no component collects them and no
	// BFS crosses them.
	seen := make([]bool, n)
	var hubs []int
	for v := 0; v < n; v++ {
		deg := 0
		for k := a.rowPtr[v]; k < a.rowPtr[v+1]; k++ {
			if int(a.col[k]) != v {
				deg++
			}
		}
		if deg*deg > n {
			seen[v] = true
			hubs = append(hubs, v)
		}
	}
	// Handle each connected component of the hub-free graph.
	for v := 0; v < n; v++ {
		if seen[v] {
			continue
		}
		comp := nd.collectComponent(v, seen)
		nd.dissect(comp)
	}
	nd.ordered = append(nd.ordered, hubs...)
	perm := make([]int, n)
	for newIdx, old := range nd.ordered {
		perm[old] = newIdx
	}
	return perm
}

type ndState struct {
	a       *CSR
	inSet   []int // generation marker: inSet[v] == gen means v is active
	gen     int
	visit   []int // BFS marker: visit[v] == vgen means v was reached
	vgen    int
	level   []int
	queue   []int
	ordered []int
}

// leafSize is the subproblem size below which recursion stops and the
// subset is ordered directly.
const leafSize = 24

func (nd *ndState) collectComponent(start int, seen []bool) []int {
	comp := []int{start}
	seen[start] = true
	for head := 0; head < len(comp); head++ {
		nd.a.Row(comp[head], func(j int, _ float64) {
			if !seen[j] {
				seen[j] = true
				comp = append(comp, j)
			}
		})
	}
	return comp
}

// bfsLevels runs a BFS restricted to the active set from start, filling
// nd.level and marking each reached vertex with a fresh nd.vgen, and
// returns the vertices in visit order plus the depth.
func (nd *ndState) bfsLevels(start int) ([]int, int) {
	gen := nd.gen
	nd.vgen++
	vgen := nd.vgen
	order := nd.queue[:0]
	order = append(order, start)
	nd.level[start] = 0
	nd.visit[start] = vgen
	depth := 0
	for head := 0; head < len(order); head++ {
		v := order[head]
		nd.a.Row(v, func(j int, _ float64) {
			if nd.inSet[j] == gen && nd.visit[j] != vgen {
				nd.visit[j] = vgen
				nd.level[j] = nd.level[v] + 1
				if nd.level[j] > depth {
					depth = nd.level[j]
				}
				order = append(order, j)
			}
		})
	}
	nd.queue = order[:0]
	out := append([]int(nil), order...)
	return out, depth
}

// dissect recursively orders the given vertex set.
func (nd *ndState) dissect(set []int) {
	if len(set) <= leafSize {
		// Small base case: natural (sorted) order keeps determinism.
		s := append([]int(nil), set...)
		sort.Ints(s)
		nd.ordered = append(nd.ordered, s...)
		return
	}

	// Mark the active set with a fresh generation.
	nd.gen++
	for _, v := range set {
		nd.inSet[v] = nd.gen
	}

	// Pseudo-peripheral start: BFS twice, starting the second pass from
	// the deepest vertex of the first.
	order, _ := nd.bfsLevels(set[0])
	far := order[len(order)-1]
	order, depth := nd.bfsLevels(far)

	if len(order) < len(set) {
		// The set splits into disconnected pieces (can happen after
		// separator removal): dissect the found piece and the rest.
		var rest []int
		for _, v := range set {
			if nd.visit[v] != nd.vgen {
				rest = append(rest, v)
			}
		}
		nd.dissect(order)
		nd.dissect(rest)
		return
	}
	if depth < 2 {
		// No useful level structure (dense blob): order directly.
		s := append([]int(nil), set...)
		sort.Ints(s)
		nd.ordered = append(nd.ordered, s...)
		return
	}

	mid := depth / 2
	var lo, hi, sep []int
	for _, v := range order {
		switch {
		case nd.level[v] < mid:
			lo = append(lo, v)
		case nd.level[v] > mid:
			hi = append(hi, v)
		default:
			sep = append(sep, v)
		}
	}
	nd.dissect(lo)
	nd.dissect(hi)
	s := append([]int(nil), sep...)
	sort.Ints(s)
	nd.ordered = append(nd.ordered, s...)
}
