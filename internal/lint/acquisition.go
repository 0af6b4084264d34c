package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/imcstudy/imcstudy/internal/lint/analysis"
)

// acquisition is a nil-guarded acquisition contract: the guarded types
// of one package may only be minted by that package's own accessors.
// MetricsNil and ProfNil are its two instances. The walk finds the four
// ways to bypass the accessors: a composite literal, new(T), and a
// value-typed variable or struct field, which can never be the nil
// "disabled" sentinel the hot paths check against.
type acquisition struct {
	pkg     string // package name, as in messages and import paths
	guarded map[string]bool
	// accessor names where a guarded type comes from.
	accessor func(name string) string
	// The four report formats; %[1]s is the type name and %[2]s its
	// accessor.
	composite, newCall, valueVar, valueField string
}

func (a *acquisition) run(pass *analysis.Pass) error {
	if a.inPkg(pass.Pkg.Path()) {
		return nil // the package's own accessors construct these
	}
	w := collectWaivers(pass.Fset, pass.Files)
	report := func(pos token.Pos, format string, t types.Type) {
		if name := a.guardedType(t); name != "" && !waived(pass, w, pos) {
			pass.Reportf(pos, format, name, a.accessor(name))
		}
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				report(n.Pos(), a.composite, pass.TypesInfo.TypeOf(n))
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok {
					if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "new" && len(n.Args) == 1 {
						report(n.Pos(), a.newCall, pass.TypesInfo.TypeOf(n.Args[0]))
					}
				}
			case *ast.ValueSpec:
				if n.Type != nil {
					report(n.Pos(), a.valueVar, pass.TypesInfo.TypeOf(n.Type))
				}
			case *ast.StructType:
				for _, fld := range n.Fields.List {
					report(fld.Pos(), a.valueField, pass.TypesInfo.TypeOf(fld.Type))
				}
			}
			return true
		})
	}
	return nil
}

// guardedType returns the type name when t is a bare (non pointer)
// guarded type of the contract's package, else "".
func (a *acquisition) guardedType(t types.Type) string {
	n, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil || !a.inPkg(obj.Pkg().Path()) || !a.guarded[obj.Name()] {
		return ""
	}
	return obj.Name()
}

func (a *acquisition) inPkg(path string) bool {
	return strings.HasSuffix(path, "/internal/"+a.pkg) || path == a.pkg
}
