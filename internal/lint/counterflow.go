package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CounterFlow guards the counter plumbing the golden files are
// built from. A "counters struct" is a struct type named Counters whose
// declaring package is named stats. The analyzer checks:
//
//  1. Every Counters field is uint64 and non-embedded: the reflective
//     subtractor and the golden renderer walk the struct assuming
//     exactly that shape.
//  2. (*Counters).Add and (*Counters).Sub reference every field on both
//     the receiver and the argument, so a newly added counter can never
//     silently drop out of aggregation or per-VM attribution. A body
//     that walks the struct with package reflect counts as full
//     coverage.
//  3. Every function annotated //hatric:counters-sink (the golden
//     renderer and table formatters) either references every Counters
//     field or walks the struct reflectively, so a new counter cannot
//     vanish from the output paths that the golden tests pin.
var CounterFlow = &Analyzer{
	Name: "counterflow",
	Doc:  "require every stats.Counters field to flow through Add, Sub, and the annotated output sinks",
	Run:  runCounterFlow,
}

func runCounterFlow(pass *Pass) error {
	if pass.Pkg.Name == "stats" {
		checkCountersDecl(pass)
	}
	checkSinks(pass)
	return nil
}

// countersStruct finds a struct type named Counters declared in a
// package named stats, reachable from pkg (the package itself or one of
// its direct imports). Returns nil if there is none.
func countersStruct(pkg *types.Package) (*types.TypeName, *types.Struct) {
	cands := []*types.Package{pkg}
	cands = append(cands, pkg.Imports()...)
	for _, p := range cands {
		if p.Name() != "stats" {
			continue
		}
		obj, ok := p.Scope().Lookup("Counters").(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		return obj, st
	}
	return nil, nil
}

// checkCountersDecl enforces the struct shape and Add/Sub coverage in
// the declaring package.
func checkCountersDecl(pass *Pass) {
	obj, st := countersStruct(pass.Pkg.Types)
	if obj == nil || obj.Pkg() != pass.Pkg.Types {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if b, ok := f.Type().Underlying().(*types.Basic); f.Embedded() || !ok || b.Kind() != types.Uint64 {
			pass.Reportf(f.Pos(), "Counters field %s is %s; every field must be a named uint64 so the "+
				"reflective Sub and the golden renderer stay exhaustive", f.Name(), typeStr(f.Type()))
		}
	}
	for _, method := range []string{"Add", "Sub"} {
		fd := findMethodDecl(pass, obj, method)
		if fd == nil {
			pass.Reportf(obj.Pos(), "Counters has no %s method; per-CPU counters could never be aggregated", method)
			continue
		}
		checkFullCoverage(pass, fd, obj, st, method+" must aggregate every field")
	}
}

// checkSinks enforces full field coverage on //hatric:counters-sink
// functions anywhere.
func checkSinks(pass *Pass) {
	sinks := pass.Pkg.Annots.Marked(annotCountersSink)
	if len(sinks) == 0 {
		return
	}
	obj, st := countersStruct(pass.Pkg.Types)
	for fd := range sinks {
		if obj == nil {
			pass.Reportf(fd.Pos(), "//hatric:counters-sink function %s: no stats.Counters type is "+
				"reachable from this package", fd.Name.Name)
			continue
		}
		checkFullCoverage(pass, fd, obj, st,
			"a counters sink must print or fold every field")
	}
}

// findMethodDecl locates the declaration of the named method on the
// Counters type within the package's files.
func findMethodDecl(pass *Pass, obj *types.TypeName, name string) *ast.FuncDecl {
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != name {
				continue
			}
			def, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			recv := def.Signature().Recv()
			if recv == nil {
				continue
			}
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			if named, ok := rt.(*types.Named); ok && named.Obj() == obj {
				return fd
			}
		}
	}
	return nil
}

// checkFullCoverage reports fields of the counters struct that fd never
// references. A body using package reflect is assumed to walk the whole
// struct (the stats tests assert reflective and hand-written paths
// agree).
func checkFullCoverage(pass *Pass, fd *ast.FuncDecl, obj *types.TypeName, st *types.Struct, contract string) {
	if fd.Body == nil {
		return
	}
	info := pass.Pkg.Info
	usesReflect := false
	referenced := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if pn, ok := info.Uses[n].(*types.PkgName); ok && pn.Imported().Path() == "reflect" {
				usesReflect = true
			}
		case *ast.SelectorExpr:
			sel, ok := info.Selections[n]
			if !ok || sel.Kind() != types.FieldVal {
				return true
			}
			rt := sel.Recv()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			if named, ok := rt.(*types.Named); ok && named.Obj() == obj {
				referenced[n.Sel.Name] = true
			}
		}
		return true
	})
	if usesReflect {
		return
	}
	var missing []string
	for i := 0; i < st.NumFields(); i++ {
		if name := st.Field(i).Name(); !referenced[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		pass.Reportf(fd.Pos(), "%s of Counters: %s never references %s; a new counter must not "+
			"silently drop out of aggregation or golden output",
			contract, fd.Name.Name, strings.Join(missing, ", "))
	}
}
