package osiris

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestLibrariesTakeExplicitOptions keeps process-global behaviour
// switches out of the library packages: every non-test file under
// internal/ is parsed, and any reference to the process environment
// (os.Getenv, os.LookupEnv, os.Environ) or any exported Set*Default
// function fails the test. A run must be steered only by the options
// its caller passes (core.Config, faultinject.Exec, ...); cmd/ mains
// turn flags into those options.
func TestLibrariesTakeExplicitOptions(t *testing.T) {
	envReads := map[string]bool{"Getenv": true, "LookupEnv": true, "Environ": true}
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files++
		osName := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"os"` {
				osName = "os"
				if imp.Name != nil {
					osName = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && osName != "" && x.Name == osName && envReads[n.Sel.Name] {
					t.Errorf("%s: os.%s reads the process environment; take an explicit option instead",
						fset.Position(n.Pos()), n.Sel.Name)
				}
			case *ast.FuncDecl:
				if name := n.Name.Name; n.Name.IsExported() && strings.HasPrefix(name, "Set") && strings.HasSuffix(name, "Default") {
					t.Errorf("%s: %s sets a process-wide default; take an explicit option instead",
						fset.Position(n.Pos()), name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("parsed only %d files under internal/; is the test running from the module root?", files)
	}
}
