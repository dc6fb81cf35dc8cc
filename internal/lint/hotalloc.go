package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// HotAlloc turns the runtime zero-allocation gate
// (sim.TestSteadyStateZeroAllocs) into per-line diagnostics: functions
// annotated //hatric:hotpath — and, transitively, every same-package
// function or method they statically call — may not contain
// allocation-causing constructs:
//
//   - make, new, and append (growth cannot be proven bounded statically)
//   - composite literals of slice/map type, or with their address taken
//   - interface boxing of non-pointer-shaped values (calls, assignments,
//     returns, sends), including the argument slice of variadic calls
//   - closures capturing outer variables, and method values
//   - string concatenation and string<->[]byte/[]rune conversions
//   - go statements
//
// Cold paths inside hot functions (error exits that abort the run)
// carry //hatric:alloc-ok <reason> on or above the offending line. The
// analysis is intentionally conservative: a flagged construct may be
// optimized away by escape analysis, but the annotation then documents
// why the line is safe, which is exactly the reviewable contract the
// golden files need. Propagation is intra-package and static only
// — cross-package callees on the hot path carry their own annotations,
// and calls through interfaces or function values are not followed.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "flag allocation-causing constructs in //hatric:hotpath functions and their intra-package callees",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) error {
	roots := pass.Pkg.Annots.Marked(annotHotpath)
	if len(roots) == 0 {
		return nil
	}

	// Index every function declaration in the package by its object, so
	// static calls can be resolved to bodies for propagation.
	declIndex := map[types.Object]*ast.FuncDecl{}
	declName := map[*ast.FuncDecl]string{}
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.Pkg.Info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			declIndex[obj] = fd
			name := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				if rt := pass.Pkg.Info.TypeOf(fd.Recv.List[0].Type); rt != nil {
					name = types.TypeString(rt, types.RelativeTo(pass.Pkg.Types)) + "." + name
				}
			}
			declName[fd] = name
		}
	}

	// Breadth-first propagation from the annotated roots through static
	// same-package calls. rootOf names the annotated function that pulled
	// each callee onto the hot path, for the diagnostic text.
	rootOf := map[*ast.FuncDecl]string{}
	var queue []*ast.FuncDecl
	var rootDecls []*ast.FuncDecl
	for fd := range roots {
		rootDecls = append(rootDecls, fd)
	}
	sort.Slice(rootDecls, func(i, j int) bool { return rootDecls[i].Pos() < rootDecls[j].Pos() })
	for _, fd := range rootDecls {
		if fd.Body == nil {
			continue
		}
		rootOf[fd] = declName[fd]
		queue = append(queue, fd)
	}
	for len(queue) > 0 {
		fd := queue[0]
		queue = queue[1:]
		root := rootOf[fd]
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var obj types.Object
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				obj = pass.Pkg.Info.Uses[fun]
			case *ast.SelectorExpr:
				obj = pass.Pkg.Info.Uses[fun.Sel]
			}
			if callee, hit := declIndex[obj]; hit {
				if _, seen := rootOf[callee]; !seen {
					rootOf[callee] = root
					queue = append(queue, callee)
				}
			}
			return true
		})
	}

	hot := make([]*ast.FuncDecl, 0, len(rootOf))
	for fd := range rootOf {
		hot = append(hot, fd)
	}
	sort.Slice(hot, func(i, j int) bool { return hot[i].Pos() < hot[j].Pos() })
	for _, fd := range hot {
		checkHotFunc(pass, fd, declName[fd], rootOf[fd])
	}
	return nil
}

// checkHotFunc walks one hot function body and reports every
// allocation-causing construct.
func checkHotFunc(pass *Pass, fd *ast.FuncDecl, name, root string) {
	info := pass.Pkg.Info
	via := ""
	if root != "" && root != name {
		via = " (hot via " + root + ")"
	}
	report := func(pos token.Pos, format string, args ...any) {
		if pass.suppressed(annotAllocOK, pos) {
			return
		}
		args = append(args, name, via)
		pass.Reportf(pos, format+" in hot-path function %s%s; hoist it off the per-reference path or annotate //hatric:alloc-ok <reason>", args...)
	}

	sig, _ := info.TypeOf(fd.Name).(*types.Signature)

	// callFuns collects expressions in call position, so method-value
	// detection can skip ordinary method calls.
	callFuns := map[ast.Expr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			callFuns[ast.Unparen(call.Fun)] = true
		}
		return true
	})

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if caps := capturedVars(info, n); len(caps) > 0 {
				report(n.Pos(), "closure capturing %s allocates", caps[0])
			}
			return false // the literal's body runs elsewhere; don't double-report

		case *ast.GoStmt:
			report(n.Pos(), "go statement allocates a goroutine")

		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n.Pos(), "&composite-literal escapes to the heap")
					// The literal itself is accounted for; still walk its
					// elements for nested slice/map literals.
					for _, e := range lit.Elts {
						ast.Inspect(e, walk)
					}
					return false
				}
			}

		case *ast.CompositeLit:
			if t := info.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					report(n.Pos(), "slice literal allocates")
				case *types.Map:
					report(n.Pos(), "map literal allocates")
				}
			}

		case *ast.BinaryExpr:
			if n.Op == token.ADD && isNonConstString(info, n) {
				report(n.Pos(), "string concatenation allocates")
			}

		case *ast.AssignStmt:
			checkAssignAlloc(report, info, n)

		case *ast.ValueSpec:
			if n.Type != nil {
				if t := info.TypeOf(n.Type); t != nil {
					for _, v := range n.Values {
						if boxed(info, v, t) {
							report(v.Pos(), "assignment boxes %s into interface %s",
								typeStr(info.TypeOf(v)), typeStr(t))
						}
					}
				}
			}

		case *ast.ReturnStmt:
			if sig != nil && sig.Results().Len() == len(n.Results) {
				for i, r := range n.Results {
					if boxed(info, r, sig.Results().At(i).Type()) {
						report(r.Pos(), "return boxes %s into interface %s",
							typeStr(info.TypeOf(r)), typeStr(sig.Results().At(i).Type()))
					}
				}
			}

		case *ast.SendStmt:
			if t := info.TypeOf(n.Chan); t != nil {
				if ch, ok := t.Underlying().(*types.Chan); ok && boxed(info, n.Value, ch.Elem()) {
					report(n.Value.Pos(), "send boxes %s into interface %s",
						typeStr(info.TypeOf(n.Value)), typeStr(ch.Elem()))
				}
			}

		case *ast.SelectorExpr:
			if selInfo, ok := info.Selections[n]; ok && selInfo.Kind() == types.MethodVal && !callFuns[ast.Expr(n)] {
				report(n.Pos(), "method value allocates a bound-method closure")
			}

		case *ast.CallExpr:
			checkCallAlloc(report, info, n)
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}

// checkAssignAlloc flags string += and interface-boxing assignments.
func checkAssignAlloc(report func(token.Pos, string, ...any), info *types.Info, as *ast.AssignStmt) {
	if as.Tok == token.ADD_ASSIGN && len(as.Lhs) == 1 {
		if t := info.TypeOf(as.Lhs[0]); t != nil {
			if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				report(as.Pos(), "string concatenation allocates")
			}
		}
	}
	if as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Lhs {
		lt := info.TypeOf(as.Lhs[i])
		if lt != nil && boxed(info, as.Rhs[i], lt) {
			report(as.Rhs[i].Pos(), "assignment boxes %s into interface %s",
				typeStr(info.TypeOf(as.Rhs[i])), typeStr(lt))
		}
	}
}

// checkCallAlloc handles builtins, conversions, variadic argument
// slices, and per-argument interface boxing.
func checkCallAlloc(report func(token.Pos, string, ...any), info *types.Info, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				report(call.Pos(), "make allocates")
			case "new":
				report(call.Pos(), "new allocates")
			case "append":
				report(call.Pos(), "append may grow and allocate")
			}
			return
		}
	}

	// Conversions: T(x).
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		target := tv.Type
		if len(call.Args) == 1 {
			arg := call.Args[0]
			if boxed(info, arg, target) {
				report(call.Pos(), "conversion boxes %s into interface %s",
					typeStr(info.TypeOf(arg)), typeStr(target))
			}
			if isStringByteConversion(info, arg, target) {
				report(call.Pos(), "string conversion allocates")
			}
		}
		return
	}

	sig, ok := info.TypeOf(fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var target types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				target = params.At(params.Len() - 1).Type()
			} else if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				target = s.Elem()
			}
		case i < params.Len():
			target = params.At(i).Type()
		}
		if target != nil && boxed(info, arg, target) {
			report(arg.Pos(), "argument boxes %s into interface %s",
				typeStr(info.TypeOf(arg)), typeStr(target))
		}
	}
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= params.Len() {
		report(call.Pos(), "variadic call allocates its argument slice")
	}
}

// boxed reports whether storing expr into a target of type t converts a
// non-pointer-shaped concrete value to an interface — an allocation.
// Constants are exempt (the compiler materializes them statically), as
// are pointer-shaped values (pointers, channels, maps, funcs, unsafe
// pointers), whose interface representation reuses the value word.
func boxed(info *types.Info, expr ast.Expr, target types.Type) bool {
	if target == nil {
		return false
	}
	if _, isIface := target.Underlying().(*types.Interface); !isIface {
		return false
	}
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil || tv.Value != nil || tv.IsNil() {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		if tv.Type.Underlying().(*types.Basic).Kind() == types.UnsafePointer {
			return false
		}
	}
	return true
}

func isNonConstString(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil || tv.Value != nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isStringByteConversion reports string <-> []byte / []rune conversions.
func isStringByteConversion(info *types.Info, arg ast.Expr, target types.Type) bool {
	at := info.TypeOf(arg)
	if at == nil {
		return false
	}
	if tv, ok := info.Types[arg]; ok && tv.Value != nil {
		return false // constant strings convert statically
	}
	return (isStringType(target) && isByteOrRuneSlice(at)) ||
		(isByteOrRuneSlice(target) && isStringType(at))
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// typeStr renders a type compactly for diagnostics.
func typeStr(t types.Type) string {
	if t == nil {
		return "?"
	}
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

// capturedVars returns the names of enclosing-function variables a
// FuncLit captures, sorted for deterministic diagnostics.
func capturedVars(info *types.Info, lit *ast.FuncLit) []string {
	seen := map[string]bool{}
	var names []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured: declared outside the literal, but not at package
		// scope (package-level variables need no closure cell).
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true
		}
		if v.Parent() == nil || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
			return true
		}
		if !seen[v.Name()] {
			seen[v.Name()] = true
			names = append(names, v.Name())
		}
		return true
	})
	sort.Strings(names)
	return names
}
