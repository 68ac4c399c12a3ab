package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// TrustFlow is the verify-before-index invariant (PRs 1 and 3) as a
// taint check: a value produced by wire decoding — S-expression
// parsing, certificate/proof decoding, directory fetches and discovery
// answers — carries no authority until a Verify* call has screened it,
// so it must not reach an indexing or digesting sink first. Network
// bytes that skip verification and land in the store or the prover's
// delegation graph plant authority an attacker chose.
//
// Sources (taint): sexp.Parse*/Read*,
// core.ProofFromSexp/ParseProof, cert *FromSexp/Decode* decoders,
// certdir.Client.Fetch and its By* query methods, and both methods of
// prover.RemoteSource. Cleansers: any Verify*-named call that
// mentions the value (or a container of it) — including VerifyBatch
// over a slice, whose elements are then clean. Sinks:
// certdir.Store.Publish and prover.Prover.AddProof/addEdge.
//
// The analysis is intraprocedural and walks each function in source
// order, so a cleanse in one branch conservatively clears the taint
// for the rest of the function; the testdata pins the shapes it must
// catch.
var TrustFlow = &Analyzer{
	Name: "trustflow",
	Doc:  "wire-decoded values pass through Verify* before Publish/index/digest sinks (verify-before-index)",
	Run:  runTrustFlow,
}

func runTrustFlow(pass *Pass) error {
	for _, f := range pass.Files {
		for _, fs := range funcScopes(f) {
			tw := &taintWalker{pass: pass, tainted: make(map[types.Object]bool)}
			tw.stmt(fs.body)
		}
	}
	return nil
}

// isWireSource reports whether the call decodes wire bytes.
func isWireSource(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	name := fn.Name()
	switch {
	case pathHasSuffix(fn.Pkg().Path(), "internal/sexp"):
		return strings.HasPrefix(name, "Parse") || strings.HasPrefix(name, "Read")
	case pathHasSuffix(fn.Pkg().Path(), "internal/core"):
		return name == "ProofFromSexp" || name == "ParseProof"
	case pathHasSuffix(fn.Pkg().Path(), "internal/cert"):
		return strings.HasSuffix(name, "FromSexp") || strings.HasPrefix(name, "Decode")
	case pathHasSuffix(fn.Pkg().Path(), "internal/certdir"):
		return recvNamed(fn) == "Client" && (name == "Fetch" || strings.HasPrefix(name, "By"))
	case pathHasSuffix(fn.Pkg().Path(), "internal/prover"):
		return recvNamed(fn) == "RemoteSource"
	}
	return false
}

// isCleanser reports whether the call verifies its operands.
func isCleanser(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	return strings.HasPrefix(fn.Name(), "Verify")
}

// sinkName returns a printable name if the call indexes or digests
// authority, "" otherwise.
func sinkName(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil {
		return ""
	}
	switch {
	case isMethod(fn, "internal/certdir", "Store", "Publish"):
		return "certdir.Store.Publish"
	case isMethod(fn, "internal/prover", "Prover", "AddProof"):
		return "prover.Prover.AddProof"
	case isMethod(fn, "internal/prover", "Prover", "addEdge"):
		return "prover.Prover.addEdge"
	}
	return ""
}

// taintWalker tracks wire-tainted objects through one function body
// in source order.
type taintWalker struct {
	pass    *Pass
	tainted map[types.Object]bool
}

func (tw *taintWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			tw.stmt(st)
		}
	case *ast.AssignStmt:
		tw.assign(s)
	case *ast.RangeStmt:
		tw.rangeStmt(s)
	case *ast.IfStmt:
		tw.stmt(s.Init)
		tw.exprs(s.Cond)
		tw.stmt(s.Body)
		tw.stmt(s.Else)
	case *ast.ForStmt:
		tw.stmt(s.Init)
		tw.exprs(s.Cond)
		tw.stmt(s.Body)
		tw.stmt(s.Post)
	case *ast.SwitchStmt:
		tw.stmt(s.Init)
		tw.exprs(s.Tag)
		tw.stmt(s.Body)
	case *ast.TypeSwitchStmt:
		tw.stmt(s.Init)
		tw.stmt(s.Assign)
		tw.stmt(s.Body)
	case *ast.CaseClause:
		tw.exprs(s.List...)
		for _, st := range s.Body {
			tw.stmt(st)
		}
	case *ast.SelectStmt:
		tw.stmt(s.Body)
	case *ast.CommClause:
		tw.stmt(s.Comm)
		for _, st := range s.Body {
			tw.stmt(st)
		}
	case *ast.LabeledStmt:
		tw.stmt(s.Stmt)
	case *ast.ExprStmt:
		tw.exprs(s.X)
	case *ast.ReturnStmt:
		tw.exprs(s.Results...)
	case *ast.DeferStmt:
		tw.exprs(s.Call)
	case *ast.GoStmt:
		tw.exprs(s.Call)
	case *ast.SendStmt:
		tw.exprs(s.Chan, s.Value)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					tw.declSpec(vs)
				}
			}
		}
	case *ast.IncDecStmt:
		tw.exprs(s.X)
	default:
		// Branch/empty statements carry no expressions.
	}
}

// assign handles taint introduction, propagation, and clearing.
func (tw *taintWalker) assign(s *ast.AssignStmt) {
	// First give the RHS calls their cleanse/sink effects.
	for _, rhs := range s.Rhs {
		tw.exprs(rhs)
	}
	// One-to-one assignments map rhs[i] to lhs[i]; a multi-value call
	// (x, err := f()) taints every lhs if the call is a source.
	taintLhs := func(id *ast.Ident, on bool) {
		obj := identObj(tw.pass.Info, id)
		if obj == nil {
			return
		}
		if on {
			tw.tainted[obj] = true
		} else {
			delete(tw.tainted, obj)
		}
	}
	if len(s.Lhs) == len(s.Rhs) {
		for i, rhs := range s.Rhs {
			id, ok := s.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			taintLhs(id, tw.exprTainted(rhs))
		}
		return
	}
	on := false
	for _, rhs := range s.Rhs {
		if tw.exprTainted(rhs) {
			on = true
		}
	}
	for _, lhs := range s.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			taintLhs(id, on)
		}
	}
}

func (tw *taintWalker) declSpec(vs *ast.ValueSpec) {
	for _, v := range vs.Values {
		tw.exprs(v)
	}
	on := false
	for _, v := range vs.Values {
		if tw.exprTainted(v) {
			on = true
		}
	}
	if !on {
		return
	}
	for _, id := range vs.Names {
		if obj := tw.pass.Info.Defs[id]; obj != nil {
			tw.tainted[obj] = true
		}
	}
}

func (tw *taintWalker) rangeStmt(s *ast.RangeStmt) {
	tw.exprs(s.X)
	on := tw.exprTainted(s.X)
	for _, e := range []ast.Expr{s.Key, s.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := identObj(tw.pass.Info, id); obj != nil {
				if on {
					tw.tainted[obj] = true
				} else {
					delete(tw.tainted, obj)
				}
			}
		}
	}
	tw.stmt(s.Body)
}

// exprTainted reports whether evaluating expr yields a wire-tainted
// value: it contains a source call or mentions a tainted variable.
func (tw *taintWalker) exprTainted(expr ast.Expr) bool {
	if expr == nil {
		return false
	}
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isWireSource(tw.pass.Info, n) {
				found = true
				return false
			}
			// A cleanser call yields a clean result (usually an error).
			if isCleanser(tw.pass.Info, n) {
				return false
			}
		case *ast.Ident:
			if obj := tw.pass.Info.Uses[n]; obj != nil && tw.tainted[obj] {
				found = true
				return false
			}
		case *ast.FuncLit:
			return false // separate scope; walked structurally elsewhere
		}
		return true
	})
	return found
}

// exprs applies the side effects of every call inside the given
// expressions, in source order: cleansers clear taint, sinks report.
func (tw *taintWalker) exprs(list ...ast.Expr) {
	var calls []*ast.CallExpr
	for _, e := range list {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				calls = append(calls, n)
			case *ast.FuncLit:
				tw.stmt(n.Body)
				return false
			}
			return true
		})
	}
	sort.Slice(calls, func(i, j int) bool { return calls[i].Pos() < calls[j].Pos() })
	for _, call := range calls {
		if name := sinkName(tw.pass.Info, call); name != "" {
			for _, arg := range call.Args {
				if tw.exprTainted(arg) {
					tw.pass.Reportf(call.Pos(),
						"wire-decoded value reaches %s without passing through a Verify* call "+
							"(verify-before-index: unverified network bytes must not plant authority)", name)
					break
				}
			}
			continue
		}
		if isCleanser(tw.pass.Info, call) {
			tw.cleanse(call)
		}
	}
}

// cleanse clears taint from every variable the verify call mentions:
// its arguments and, for methods, the receiver (c.Verify(ctx) cleans
// c; cert.VerifyBatch(ctx, certs) cleans certs, and with it the
// elements later ranged out of it).
func (tw *taintWalker) cleanse(call *ast.CallExpr) {
	clear := func(e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := tw.pass.Info.Uses[id]; obj != nil {
					delete(tw.tainted, obj)
				}
			}
			return true
		})
	}
	for _, a := range call.Args {
		clear(a)
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		clear(sel.X)
	}
}
