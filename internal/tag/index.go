package tag

import (
	"cmp"
	"slices"

	"repro/internal/sexp"
)

// Index files items under the literal path of a tag, so a lookup for a
// tag w visits only the items whose tag can cover w. The prover's edge
// sets and the directory's per-issuer certificate lists both use it.
//
// A tag's path is its pre-order token walk up to its first list close:
// a list contributes an open token, an atom its bytes (display hints
// are dropped, because Covers compares bytes).
//
//   - An item is filed under the tokens of its tag before the tag's
//     first star form or first list close. (*) and a top-level star
//     form file at the root; (db (owner x)) and (db (owner x) y) both
//     file under "( db ( owner x".
//   - A lookup for w probes the root and every token-boundary prefix
//     of w's path. If a star form comes before w's first list close, w
//     is not indexable and the caller must consider every item.
//
// The contract: Covers(t, w) with w indexable implies t's filing key is
// one of w's probe keys. Before t's first close or star form, t covers
// w only if w has the same atom at each of t's atoms and a plain list
// at each of t's lists (the atom and plain-list cases of Covers; a set
// in w stops w's walk first, making w unindexable). A list in t longer
// than its counterpart in w would have to cover a missing element, read
// as (*), which only (*) covers, and (*) ends t's key there.
//
// Lookups cost time linear in the size of w and allocate only their
// answer: the probe keys are never materialized, the walk descends a
// trie of filed paths. The zero Index is empty and ready to use. An
// Index is not safe for concurrent mutation; its owners lock around it.
type Index[E comparable] struct {
	root node[E]
	seq  uint64 // stamps items in insertion order
}

type node[E comparable] struct {
	items []filed[E]          // items filed at exactly this path, insertion order
	list  *node[E]            // child reached by an open token
	atoms map[string]*node[E] // children reached by an atom token
}

type filed[E comparable] struct {
	seq uint64
	v   E
}

// walkPath feeds visit the tokens of e's path (open, or an atom's
// bytes) and reports whether a star form ended the walk. Past the first
// list close there is nothing to feed, so the walk only ever descends:
// it follows a list's leading atoms into its first non-atom element.
func walkPath(e sexp.Sexp, visit func(open bool, atom []byte)) (star bool) {
	for e != nil {
		if e.IsAtom() {
			visit(false, e.Bytes())
			return false
		}
		if isStarForm(e) {
			return true
		}
		visit(true, nil)
		var next sexp.Sexp
		for i, n := 0, e.Len(); i < n && next == nil; i++ {
			if el := e.Nth(i); el.IsAtom() {
				visit(false, el.Bytes())
			} else {
				next = el
			}
		}
		e = next
	}
	return false
}

// child returns n's child for one token, or nil.
func (n *node[E]) child(open bool, atom []byte) *node[E] {
	if open {
		return n.list
	}
	return n.atoms[string(atom)]
}

// Add files v under t's path.
func (ix *Index[E]) Add(t Tag, v E) {
	n := &ix.root
	walkPath(t.expr, func(open bool, atom []byte) {
		c := n.child(open, atom)
		if c == nil {
			c = &node[E]{}
			if open {
				n.list = c
			} else {
				if n.atoms == nil {
					n.atoms = make(map[string]*node[E])
				}
				n.atoms[string(atom)] = c
			}
		}
		n = c
	})
	ix.seq++
	n.items = append(n.items, filed[E]{seq: ix.seq, v: v})
}

// Remove unfiles v, which must have been added under t, and reports
// whether it was present. Paths left empty are pruned, so a long-lived
// index holds only the paths of its current items.
func (ix *Index[E]) Remove(t Tag, v E) bool {
	type step struct {
		open bool
		atom []byte
	}
	path := []*node[E]{&ix.root}
	var steps []step // steps[j] leads from path[j] to path[j+1]
	walkPath(t.expr, func(open bool, atom []byte) {
		if n := path[len(path)-1]; n != nil {
			path = append(path, n.child(open, atom))
			steps = append(steps, step{open, atom})
		}
	})
	n := path[len(path)-1]
	if n == nil {
		return false
	}
	i := slices.IndexFunc(n.items, func(f filed[E]) bool { return f.v == v })
	if i < 0 {
		return false
	}
	n.items = slices.Delete(n.items, i, i+1)
	for j := len(path) - 1; j > 0; j-- {
		if c := path[j]; len(c.items) > 0 || c.list != nil || len(c.atoms) > 0 {
			break
		}
		if parent, st := path[j-1], steps[j-1]; st.open {
			parent.list = nil
		} else {
			delete(parent.atoms, string(st.atom))
		}
	}
	return true
}

// Candidates returns, in insertion order, every item filed under one of
// w's probe keys: a superset of the items whose tag covers w. ok is
// false when w is not indexable; the caller must then consider every
// item.
func (ix *Index[E]) Candidates(w Tag) (out []E, ok bool) {
	var got []filed[E]
	lists := 0
	collect := func(n *node[E]) {
		if len(n.items) > 0 {
			got = append(got, n.items...)
			lists++
		}
	}
	n := &ix.root
	collect(n)
	if walkPath(w.expr, func(open bool, atom []byte) {
		if n != nil {
			if n = n.child(open, atom); n != nil {
				collect(n)
			}
		}
	}) {
		return nil, false
	}
	if lists > 1 {
		slices.SortFunc(got, func(a, b filed[E]) int { return cmp.Compare(a.seq, b.seq) })
	}
	if len(got) == 0 {
		return nil, true
	}
	out = make([]E, len(got))
	for i, f := range got {
		out[i] = f.v
	}
	return out, true
}
