package network

import (
	"bddmin/internal/bdd"
	"bddmin/internal/logic"
)

// windowCacheBits sizes the computed cache of the window and compile
// managers at 2^12 entries: their diagrams live over at most
// MaxWindowInputs + arity variables. On the 15 suite machines, caches of
// 2^10, 2^12 and 2^14 entries ran within run-to-run noise of each other,
// and bdd.New's 2^16 entries (1.8 MB per manager) ran 38–54% slower.
const windowCacheBits = 12

// newManager returns a manager with a computed cache sized for windows.
func newManager() *bdd.Manager {
	return bdd.NewWithConfig(0, bdd.Config{CacheBits: windowCacheBits})
}

// localFn is a node's local function compiled to a node list: node k of
// nodes tests fanin position Var and has flat-ref children (bdd.FlatNode),
// and root is the function's flat ref. The list holds exactly the
// function's nonterminal BDD nodes, so size is its BDD size.
type localFn struct {
	nodes []bdd.FlatNode
	root  uint32
}

func (f localFn) size() int { return len(f.nodes) + 1 }

// compile builds nd's local function on lc, Reset to nd's arity, with fanin
// position j bound to variable j (duplicate fanin nodes share the first
// position's variable), and flattens it. It also returns the nodes it made.
func compile(lc *bdd.Manager, nd *logic.Node) (localFn, uint64) {
	lc.Reset(len(nd.Fanin))
	memo := make(map[*logic.Node]bdd.Ref, len(nd.Fanin))
	for j, fi := range nd.Fanin {
		if _, dup := memo[fi]; !dup {
			memo[fi] = lc.MkVar(bdd.Var(j))
		}
	}
	nodes, roots := lc.Flatten(logic.EvalBDD(lc, nd, nil, memo))
	return localFn{nodes: nodes, root: roots[0]}, lc.NodesMade()
}

// compileAll compiles every internal node of net on lc and returns the
// lists with the nodes made.
func compileAll(lc *bdd.Manager, net *logic.Network) (map[*logic.Node]localFn, uint64) {
	local := make(map[*logic.Node]localFn, net.NodeCount())
	var made uint64
	for _, nd := range net.Nodes() {
		if internal(nd) {
			fn, n := compile(lc, nd)
			local[nd] = fn
			made += n
		}
	}
	return local, made
}
