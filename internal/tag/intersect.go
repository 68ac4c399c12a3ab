package tag

import (
	"strings"

	"repro/internal/sexp"
)

// Intersect returns the tag denoting the requests permitted by both t
// and u, and whether that set is nonempty. Intersection implements
// the "regarding" composition of chained delegations: a proof through
// two restricted delegations carries the intersection of their tags
// (transitivity rule, paper section 3).
func Intersect(t, u Tag) (Tag, bool) {
	e := intersect(t.expr, u.expr)
	if e == nil {
		return Tag{}, false
	}
	return Tag{expr: e}, true
}

// intersect returns nil for the empty set.
func intersect(a, b sexp.Sexp) sexp.Sexp {
	if a == nil || b == nil {
		return nil
	}
	// Identical tags — the common case in uniform delegation chains —
	// intersect to themselves without copying.
	if sexp.Equal(a, b) {
		return a
	}
	// (*) is the identity. Tag expressions are immutable once built, so
	// the survivor is shared rather than copied.
	if isStarForm(a) && starKind(a) == "all" {
		return b
	}
	if isStarForm(b) && starKind(b) == "all" {
		return a
	}
	// Sets distribute over everything.
	if isStarForm(a) && starKind(a) == "set" {
		return intersectSet(a, b)
	}
	if isStarForm(b) && starKind(b) == "set" {
		return intersectSet(b, a)
	}
	switch {
	case a.IsAtom() && b.IsAtom():
		if string(a.Bytes()) == string(b.Bytes()) {
			return a
		}
		return nil
	case a.IsAtom():
		return intersectAtomStar(a, b)
	case b.IsAtom():
		return intersectAtomStar(b, a)
	}
	aStar, bStar := isStarForm(a), isStarForm(b)
	switch {
	case aStar && bStar:
		return intersectStarStar(a, b)
	case aStar != bStar:
		// A star form against a plain list: prefixes and ranges
		// constrain byte strings, never lists.
		return nil
	default:
		return intersectLists(a, b)
	}
}

// intersectSet intersects each member of set s with x and unions the
// survivors.
func intersectSet(s, x sexp.Sexp) sexp.Sexp {
	var members []sexp.Sexp
	for i := 2; i < s.Len(); i++ {
		if m := intersect(s.Nth(i), x); m != nil {
			members = append(members, m)
		}
	}
	switch len(members) {
	case 0:
		return nil
	case 1:
		return members[0]
	}
	kids := append([]sexp.Sexp{sexp.String("*"), sexp.String("set")}, members...)
	out := sexp.List(kids...)
	return out
}

// intersectAtomStar intersects an atom with a prefix or range form.
func intersectAtomStar(atom, star sexp.Sexp) sexp.Sexp {
	switch starKind(star) {
	case "prefix":
		if strings.HasPrefix(string(atom.Bytes()), star.Nth(2).Text()) {
			return atom.Copy()
		}
	case "range":
		r, err := parseRange(star)
		if err == nil && r.contains(string(atom.Bytes())) {
			return atom.Copy()
		}
	}
	return nil
}

// intersectStarStar intersects two special forms (prefix/range).
func intersectStarStar(a, b sexp.Sexp) sexp.Sexp {
	ka, kb := starKind(a), starKind(b)
	if ka == "prefix" && kb == "prefix" {
		pa, pb := a.Nth(2).Text(), b.Nth(2).Text()
		switch {
		case strings.HasPrefix(pa, pb):
			return a.Copy()
		case strings.HasPrefix(pb, pa):
			return b.Copy()
		}
		return nil
	}
	if ka == "range" && kb == "range" {
		ra, erra := parseRange(a)
		rb, errb := parseRange(b)
		if erra != nil || errb != nil || ra.ordering != rb.ordering {
			return nil
		}
		out := ra
		if rb.hasLow {
			if !out.hasLow {
				out.hasLow, out.low, out.lowInc = true, rb.low, rb.lowInc
			} else if c := out.compare(rb.low, out.low); c > 0 {
				out.low, out.lowInc = rb.low, rb.lowInc
			} else if c == 0 {
				out.lowInc = out.lowInc && rb.lowInc
			}
		}
		if rb.hasHigh {
			if !out.hasHigh {
				out.hasHigh, out.high, out.highInc = true, rb.high, rb.highInc
			} else if c := out.compare(rb.high, out.high); c < 0 {
				out.high, out.highInc = rb.high, rb.highInc
			} else if c == 0 {
				out.highInc = out.highInc && rb.highInc
			}
		}
		if out.hasLow && out.hasHigh {
			c := out.compare(out.low, out.high)
			if c > 0 || (c == 0 && !(out.lowInc && out.highInc)) {
				return nil
			}
		}
		return out.sexp()
	}
	// prefix x range: sound conservative rules over bytewise orderings.
	if ka == "range" {
		a, b = b, a
		ka, kb = kb, ka
	}
	if ka == "prefix" && kb == "range" {
		r, err := parseRange(b)
		if err != nil || (r.ordering != OrdAlpha && r.ordering != OrdBinary) {
			return nil
		}
		p := a.Nth(2).Text()
		if rangeCoversPrefix(r, p) {
			return a.Copy()
		}
		if prefixCoversRange(p, r) {
			return b.Copy()
		}
		return nil
	}
	return nil
}

// intersectLists intersects element-wise; a shorter list's missing
// trailing elements read as (*) (shorter lists are more permissive,
// RFC 2693 section 6.3.3).
func intersectLists(a, b sexp.Sexp) sexp.Sexp {
	n := a.Len()
	if b.Len() > n {
		n = b.Len()
	}
	kids := make([]sexp.Sexp, n)
	for i := 0; i < n; i++ {
		ea, eb := a.Nth(i), b.Nth(i)
		switch {
		case ea == nil:
			kids[i] = eb.Copy()
		case eb == nil:
			kids[i] = ea.Copy()
		default:
			m := intersect(ea, eb)
			if m == nil {
				return nil
			}
			kids[i] = m
		}
	}
	return sexp.List(kids...)
}

// Covers reports whether t permits every request that u permits
// (u is a subset of t). Monotonicity proofs (weakening a delegation's
// restriction) and the final request-matching step both use Covers.
func Covers(t, u Tag) bool {
	return covers(t.expr, u.expr)
}

// CoversRequest reports whether grant t covers the single concrete
// request tag r; identical to Covers but named for call-site clarity.
func CoversRequest(t, r Tag) bool { return Covers(t, r) }

// missingElem is the (*) a shorter list's missing trailing elements
// read as. One value serves every comparison: tag expressions are never
// mutated.
var missingElem = starExpr()

func covers(a, b sexp.Sexp) bool {
	if a == nil || b == nil {
		return false
	}
	if isStarForm(a) && starKind(a) == "all" {
		return true
	}
	// b set: must cover every member.
	if isStarForm(b) && starKind(b) == "set" {
		for i := 2; i < b.Len(); i++ {
			if !covers(a, b.Nth(i)) {
				return false
			}
		}
		return true // the empty union is vacuously covered
	}
	// a set: some member must cover b.
	if isStarForm(a) && starKind(a) == "set" {
		for i := 2; i < a.Len(); i++ {
			if covers(a.Nth(i), b) {
				return true
			}
		}
		return false
	}
	if b.IsAtom() {
		if a.IsAtom() {
			return string(a.Bytes()) == string(b.Bytes())
		}
		if !isStarForm(a) {
			return false
		}
		switch starKind(a) {
		case "prefix":
			return strings.HasPrefix(string(b.Bytes()), a.Nth(2).Text())
		case "range":
			r, err := parseRange(a)
			return err == nil && r.contains(string(b.Bytes()))
		}
		return false
	}
	if a.IsAtom() {
		return false // an atom covers nothing but itself
	}
	aStar, bStar := isStarForm(a), isStarForm(b)
	switch {
	case aStar && bStar:
		return coversStarStar(a, b)
	case aStar && !bStar:
		return false // prefix/range never cover lists
	case !aStar && bStar:
		return false // a plain list never covers an infinite byte-string family
	default:
		// Lists: element-wise with missing trailing elements of the
		// *shorter* list reading as (*). a covers b iff each a element
		// covers the corresponding b element; where b is shorter, b's
		// element is (*), which only (*) covers.
		n := a.Len()
		if b.Len() > n {
			n = b.Len()
		}
		for i := 0; i < n; i++ {
			ea, eb := a.Nth(i), b.Nth(i)
			if ea == nil {
				ea = missingElem
			}
			if eb == nil {
				eb = missingElem
			}
			if !covers(ea, eb) {
				return false
			}
		}
		return true
	}
}

func coversStarStar(a, b sexp.Sexp) bool {
	ka, kb := starKind(a), starKind(b)
	switch {
	case ka == "prefix" && kb == "prefix":
		return strings.HasPrefix(b.Nth(2).Text(), a.Nth(2).Text())
	case ka == "range" && kb == "range":
		ra, erra := parseRange(a)
		rb, errb := parseRange(b)
		if erra != nil || errb != nil || ra.ordering != rb.ordering {
			return false
		}
		if ra.hasLow {
			if !rb.hasLow {
				return false
			}
			c := ra.compare(rb.low, ra.low)
			if c < 0 || (c == 0 && rb.lowInc && !ra.lowInc) {
				return false
			}
		}
		if ra.hasHigh {
			if !rb.hasHigh {
				return false
			}
			c := ra.compare(rb.high, ra.high)
			if c > 0 || (c == 0 && rb.highInc && !ra.highInc) {
				return false
			}
		}
		return true
	case ka == "prefix" && kb == "range":
		r, err := parseRange(b)
		if err != nil || (r.ordering != OrdAlpha && r.ordering != OrdBinary) {
			return false
		}
		return prefixCoversRange(a.Nth(2).Text(), r)
	case ka == "range" && kb == "prefix":
		r, err := parseRange(a)
		if err != nil || (r.ordering != OrdAlpha && r.ordering != OrdBinary) {
			return false
		}
		return rangeCoversPrefix(r, b.Nth(2).Text())
	}
	return false
}

// prefixCoversRange reports whether every string in r carries prefix
// p, for bytewise orderings. The strings with prefix p are exactly
// the interval [p, nextPrefix(p)).
func prefixCoversRange(p string, r rangeSpec) bool {
	if !r.hasLow || r.low < p {
		return false
	}
	// Lower bound >= p guarantees the left edge. Right edge: every
	// member must be < nextPrefix(p). When no such bound exists
	// (p empty or all 0xff), any string >= p carries the prefix.
	np, bounded := nextPrefix(p)
	if !bounded {
		return true
	}
	if !r.hasHigh {
		return false
	}
	return r.high < np || (r.high == np && !r.highInc)
}

// rangeCoversPrefix reports whether r contains every string with
// prefix p: [p, nextPrefix(p)) must lie inside r.
func rangeCoversPrefix(r rangeSpec, p string) bool {
	if r.hasLow {
		if p < r.low || (p == r.low && !r.lowInc) {
			return false
		}
	}
	if r.hasHigh {
		np, bounded := nextPrefix(p)
		if !bounded {
			return false
		}
		// All prefix-p strings are < np; need np <= high (strict
		// containment is fine whether or not high is inclusive).
		if np > r.high {
			return false
		}
	}
	return true
}

// nextPrefix returns the smallest string greater than every string
// with prefix p, and whether such a bound exists (it does not when p
// is empty or all 0xff bytes).
func nextPrefix(p string) (string, bool) {
	b := []byte(p)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] != 0xff {
			b[i]++
			return string(b[:i+1]), true
		}
	}
	return "", false
}
