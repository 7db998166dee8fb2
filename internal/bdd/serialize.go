package bdd

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// WriteFunctions serializes the shared diagram of the named functions in a
// compact, stable text format that ReadFunctions can reload into any
// manager with enough variables. Node identity (sharing) is preserved;
// complement edges are encoded in the references.
//
// The serialization is canonical: nodes are emitted in structural
// post-order (children before parents, high subtree first) under the
// sorted root names, so the body after the vars line depends only on the
// functions themselves — the same roots serialize byte-identically from
// any manager, regardless of arena layout or construction history.
// bddmind relies on it: a cover serializes to the same nodes and roots on
// every shard.
//
// Format:
//
//	bddmin-bdd 1
//	vars <n>
//	nodes <k>
//	<level> <highRef> <lowRef>          (k lines, nodes in dependency order)
//	roots <m>
//	<name> <ref>                        (m lines)
//
// A ref is 2*localIndex (+1 if complemented); local index 0 is the
// terminal One.
func (m *Manager) WriteFunctions(w io.Writer, roots map[string]Ref) error {
	names := make([]string, 0, len(roots))
	for name := range roots {
		if len(name) == 0 || containsSpace(name) {
			return fmt.Errorf("bdd: invalid root name %q", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	// Collect nodes in structural post-order under the sorted root names:
	// children precede parents (a valid dependency order for ReadFunctions)
	// and the sequence is determined by the diagram alone, never by arena
	// indexes — the canonicality WriteFunctions documents.
	gen := m.newStamp()
	var order []uint32
	for _, name := range names {
		m.checkRef(roots[name])
		order = m.appendReachPost(roots[name], gen, order)
	}
	local := map[uint32]uint32{0: 0}
	for i, idx := range order {
		local[idx] = uint32(i + 1)
	}
	ref := func(r Ref) uint32 {
		out := local[r.index()] << 1
		if r.IsComplement() {
			out |= 1
		}
		return out
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "bddmin-bdd 1\n")
	fmt.Fprintf(bw, "vars %d\n", m.nvars)
	fmt.Fprintf(bw, "nodes %d\n", len(order))
	for _, idx := range order {
		n := &m.nodes[idx]
		fmt.Fprintf(bw, "%d %d %d\n", n.level, ref(n.high), ref(n.low))
	}
	fmt.Fprintf(bw, "roots %d\n", len(names))
	for _, name := range names {
		fmt.Fprintf(bw, "%s %d\n", name, ref(roots[name]))
	}
	return bw.Flush()
}

func containsSpace(s string) bool {
	for _, r := range s {
		if r == ' ' || r == '\t' || r == '\n' {
			return true
		}
	}
	return false
}

// ReadFunctions reloads functions serialized by WriteFunctions. The
// manager must have at least as many variables as the writer had. Loaded
// functions are canonical in the destination manager (hash-consed through
// the unique table), so they unify with existing nodes.
func (m *Manager) ReadFunctions(r io.Reader) (map[string]Ref, error) {
	br := bufio.NewReader(r)
	var version int
	if _, err := fmt.Fscanf(br, "bddmin-bdd %d\n", &version); err != nil || version != 1 {
		return nil, fmt.Errorf("bdd: bad header (version %d, err %v)", version, err)
	}
	var nvars, nnodes int
	if _, err := fmt.Fscanf(br, "vars %d\n", &nvars); err != nil {
		return nil, fmt.Errorf("bdd: bad vars line: %v", err)
	}
	if nvars > m.nvars {
		return nil, fmt.Errorf("bdd: file needs %d variables, manager has %d", nvars, m.nvars)
	}
	if _, err := fmt.Fscanf(br, "nodes %d\n", &nnodes); err != nil {
		return nil, fmt.Errorf("bdd: bad nodes line: %v", err)
	}
	if nnodes < 0 {
		return nil, fmt.Errorf("bdd: negative node count %d", nnodes)
	}
	// The counts come from the input, so refs grows with the node lines
	// actually read instead of being sized up front from the header.
	refs := []Ref{One}
	resolve := func(raw uint32, upTo int) (Ref, error) {
		idx := raw >> 1
		if int(idx) > upTo {
			return 0, fmt.Errorf("bdd: forward reference to node %d", idx)
		}
		out := refs[idx]
		if raw&1 == 1 {
			out = out.Not()
		}
		return out, nil
	}
	for i := 1; i <= nnodes; i++ {
		var level int32
		var hi, lo uint32
		if _, err := fmt.Fscanf(br, "%d %d %d\n", &level, &hi, &lo); err != nil {
			return nil, fmt.Errorf("bdd: bad node line %d: %v", i, err)
		}
		if level < 0 || int(level) >= m.nvars {
			return nil, fmt.Errorf("bdd: node %d has invalid level %d", i, level)
		}
		h, err := resolve(hi, i-1)
		if err != nil {
			return nil, err
		}
		l, err := resolve(lo, i-1)
		if err != nil {
			return nil, err
		}
		if m.Level(h) <= level || m.Level(l) <= level {
			return nil, fmt.Errorf("bdd: node %d violates the variable order", i)
		}
		refs = append(refs, m.mkNode(level, h, l))
	}
	var nroots int
	if _, err := fmt.Fscanf(br, "roots %d\n", &nroots); err != nil {
		return nil, fmt.Errorf("bdd: bad roots line: %v", err)
	}
	out := make(map[string]Ref)
	for i := 0; i < nroots; i++ {
		var name string
		var raw uint32
		if _, err := fmt.Fscanf(br, "%s %d\n", &name, &raw); err != nil {
			return nil, fmt.Errorf("bdd: bad root line %d: %v", i, err)
		}
		r, err := resolve(raw, nnodes)
		if err != nil {
			return nil, err
		}
		out[name] = r
	}
	return out, nil
}

// CheckInvariants validates the manager's internal structure: canonical
// node form (no complemented high edges, no redundant nodes), ordering
// (children strictly below parents), unique-table consistency (every live
// node findable, no duplicates), and free-list disjointness. It returns
// the first violation found, or nil. Intended for tests and debugging;
// cost is linear in the arena.
func (m *Manager) CheckInvariants() error {
	dead := make(map[uint32]bool, len(m.free))
	for _, i := range m.free {
		if dead[i] {
			return fmt.Errorf("bdd: node %d twice on the free list", i)
		}
		dead[i] = true
	}
	type key struct {
		level    int32
		high, lo Ref
	}
	seen := make(map[key]uint32)
	live := 1
	for i := 1; i < len(m.nodes); i++ {
		if dead[uint32(i)] {
			continue
		}
		live++
		n := &m.nodes[i]
		if n.high.IsComplement() {
			return fmt.Errorf("bdd: node %d stores a complemented high edge", i)
		}
		if n.high == n.low {
			return fmt.Errorf("bdd: node %d is redundant (equal children)", i)
		}
		if n.level < 0 || int(n.level) >= m.nvars {
			return fmt.Errorf("bdd: node %d has invalid level %d", i, n.level)
		}
		if m.Level(n.high) <= n.level || m.Level(n.low) <= n.level {
			return fmt.Errorf("bdd: node %d violates the variable order", i)
		}
		if int(n.high.index()) >= len(m.nodes) || int(n.low.index()) >= len(m.nodes) {
			return fmt.Errorf("bdd: node %d has out-of-arena children", i)
		}
		if dead[n.high.index()] || dead[n.low.index()] {
			return fmt.Errorf("bdd: node %d points to a freed node", i)
		}
		k := key{n.level, n.high, n.low}
		if prev, dup := seen[k]; dup {
			return fmt.Errorf("bdd: nodes %d and %d are structural duplicates", prev, i)
		}
		seen[k] = uint32(i)
		// The node must be findable through the unique table.
		found := false
		h := hash3(uint32(n.level), uint32(n.high), uint32(n.low)) & m.mask
		for j := m.buckets[h]; j != 0; j = m.nodes[j-1].next {
			if j-1 == uint32(i) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("bdd: node %d missing from its unique-table bucket", i)
		}
	}
	if live != m.live {
		return fmt.Errorf("bdd: live count %d, accounting says %d", live, m.live)
	}
	return nil
}
