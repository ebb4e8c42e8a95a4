package sparse

// EliminationTree computes the elimination tree of the symmetric matrix a
// (using its lower triangle): parent[j] is the first row i > j whose
// factor row contains column j, or -1 for roots. Liu's algorithm with
// path compression.
func EliminationTree(a *CSR) []int {
	n := a.N()
	parent := make([]int, n)
	ancestor := make([]int, n)
	for i := 0; i < n; i++ {
		parent[i] = -1
		ancestor[i] = -1
		a.Row(i, func(j int, _ float64) {
			// Walk from j up to the root of its current subtree,
			// compressing the path onto i.
			for j < i && j != -1 {
				next := ancestor[j]
				ancestor[j] = i
				if next == -1 {
					parent[j] = i
					break
				}
				j = next
			}
		})
	}
	return parent
}

// etreeReach computes the nonzero pattern of row i of the Cholesky factor
// using the elimination tree: the union of tree paths from each a_ij
// (j < i) toward the root, stopped at already-visited nodes. The pattern
// is returned in topological (ascending-dependency) order in stack[top:].
//
// mark is a scratch array (len n) holding the last row each node was
// visited for; stack is a scratch array (len n). Each path is collected at
// the bottom of stack and then moved onto its top (CSparse's cs_ereach):
// the path and the pattern hold distinct nodes, so they never overlap, and
// the walk allocates nothing.
func etreeReach(a *CSR, i int, parent []int, mark []int, stack []int) []int {
	top := len(stack)
	mark[i] = i // never include the diagonal itself
	for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
		j := int(a.col[k])
		if j >= i {
			continue
		}
		// Walk up the tree collecting unvisited nodes in path order.
		length := 0
		for j != -1 && j < i && mark[j] != i {
			mark[j] = i
			stack[length] = j
			length++
			j = parent[j]
		}
		// Move the path onto the top of the stack, keeping its order, so
		// ancestors come after descendants overall.
		for length > 0 {
			top--
			length--
			stack[top] = stack[length]
		}
	}
	return stack[top:]
}

// PostOrder returns a postordering of the forest given by parent, useful
// for supernode detection and column counts.
func PostOrder(parent []int) []int {
	n := len(parent)
	// Build child lists (reverse order preserved by prepending).
	head := make([]int, n)
	next := make([]int, n)
	for i := range head {
		head[i] = -1
	}
	for i := n - 1; i >= 0; i-- {
		if parent[i] != -1 {
			next[i] = head[parent[i]]
			head[parent[i]] = i
		}
	}
	post := make([]int, 0, n)
	stack := make([]int, 0, n)
	for root := 0; root < n; root++ {
		if parent[root] != -1 {
			continue
		}
		stack = append(stack, root)
		for len(stack) > 0 {
			node := stack[len(stack)-1]
			child := head[node]
			if child == -1 {
				post = append(post, node)
				stack = stack[:len(stack)-1]
			} else {
				head[node] = next[child]
				stack = append(stack, child)
			}
		}
	}
	return post
}
