package protocol

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestProtocolReadsOnlyTheRulesRow keeps the binding's core.Rules row the
// only place a replica or the cluster around it learns what its binding
// does: no non-test file of this package or of internal/cluster may name a
// core.Consistency or core.Persistency constant. The constants are read off
// internal/core/model.go, so a model added there is covered too.
func TestProtocolReadsOnlyTheRulesRow(t *testing.T) {
	fset := token.NewFileSet()
	model, err := parser.ParseFile(fset, filepath.Join("..", "core", "model.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	banned := map[string]bool{}
	for _, decl := range model.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST || len(gd.Specs) == 0 {
			continue
		}
		typ, ok := gd.Specs[0].(*ast.ValueSpec).Type.(*ast.Ident)
		if !ok || (typ.Name != "Consistency" && typ.Name != "Persistency") {
			continue
		}
		for _, spec := range gd.Specs {
			for _, name := range spec.(*ast.ValueSpec).Names {
				banned[name.Name] = true
			}
		}
	}
	if len(banned) != 10 {
		t.Fatalf("found %d consistency and persistency constants in core/model.go, want 10", len(banned))
	}

	for _, dir := range []string{".", filepath.Join("..", "cluster")} {
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range files {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "core" && banned[sel.Sel.Name] {
					t.Errorf("%s: core.%s: branch on a core.Rules field instead", fset.Position(sel.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
	}
}
