//go:build ignore

// Command apicheck is a vet-style audit of the public API's naming
// conventions, run in CI (`go run scripts/apicheck.go`). It parses the
// public packages (the root fxdist package and client/) and enforces:
//
//  1. Functional-option constructors are named With*/Without*: every
//     exported function returning a single *Option-typed result must
//     carry the prefix, and every With*/Without* function must return
//     exactly one *Option-typed result.
//  2. Without* constructors take no parameters (parameters belong on
//     the With* form) and either pair with a With* of the same suffix
//     or say in their doc comment what default they disable.
//  3. Context-first signatures: when an exported function or method
//     takes a context.Context, it is the first parameter.
//  4. The root package is the serving API: its non-test files import
//     none of the paper-evaluation packages (offlineOnly), so no forward
//     to them can return; callers import those packages directly.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strconv"
	"strings"
)

var dirs = []string{".", "client"}

// offlineOnly lists the packages of the paper's evaluation that the root
// package must not import (rule 4).
var offlineOnly = []string{"fxdist/internal/analysis", "fxdist/internal/design", "fxdist/internal/queuesim"}

func main() {
	var problems []string
	for _, dir := range dirs {
		probs, err := checkDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "apicheck:", err)
			os.Exit(1)
		}
		problems = append(problems, probs...)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "apicheck:", p)
		}
		os.Exit(1)
	}
	fmt.Println("apicheck: public API conventions hold")
}

func checkDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var problems []string
	withNames := map[string]bool{}
	type withoutFn struct {
		name, pos, doc string
		params         int
	}
	var withouts []withoutFn

	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			for _, imp := range file.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); dir == "." && slices.Contains(offlineOnly, path) {
					problems = append(problems,
						fmt.Sprintf("%s imports %s; the root package is the serving API, evaluation callers import it directly", name, path))
				}
			}
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				pos := fset.Position(fn.Pos()).String()
				name := fn.Name.Name
				isCtor := fn.Recv == nil
				optRet := isCtor && returnsSingleOption(fn)

				if isCtor && strings.HasPrefix(name, "With") {
					if !optRet {
						problems = append(problems,
							fmt.Sprintf("%s: %s is With*-named but does not return a single *Option type", pos, name))
					}
					if strings.HasPrefix(name, "Without") {
						if fn.Type.Params.NumFields() > 0 {
							problems = append(problems,
								fmt.Sprintf("%s: %s takes parameters; Without* disables a default and must be parameterless", pos, name))
						}
						withouts = append(withouts, withoutFn{
							name: name, pos: pos, doc: fn.Doc.Text(),
							params: fn.Type.Params.NumFields(),
						})
					} else {
						withNames[name] = true
					}
				} else if optRet {
					problems = append(problems,
						fmt.Sprintf("%s: %s returns an *Option type but is not named With*/Without*", pos, name))
				}

				if p := contextParamIndex(fn); p > 0 {
					problems = append(problems,
						fmt.Sprintf("%s: %s takes context.Context as parameter %d; context must come first", pos, name, p+1))
				}
			}
		}
	}
	for _, wo := range withouts {
		suffix := strings.TrimPrefix(wo.name, "Without")
		if withNames["With"+suffix] {
			continue
		}
		if strings.Contains(strings.ToLower(wo.doc), "disable") {
			continue
		}
		problems = append(problems,
			fmt.Sprintf("%s: %s has no With%s pair and its doc does not say what default it disables", wo.pos, wo.name, suffix))
	}
	return problems, nil
}

// returnsSingleOption reports whether fn returns exactly one result
// whose type name ends in "Option".
func returnsSingleOption(fn *ast.FuncDecl) bool {
	res := fn.Type.Results
	if res == nil || res.NumFields() != 1 || len(res.List[0].Names) > 1 {
		return false
	}
	return strings.HasSuffix(typeName(res.List[0].Type), "Option")
}

// contextParamIndex returns the index of a context.Context parameter,
// or -1 / 0 when absent or already first.
func contextParamIndex(fn *ast.FuncDecl) int {
	idx := 0
	for _, field := range fn.Type.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if typeName(field.Type) == "context.Context" {
			if idx == 0 {
				return 0
			}
			return idx
		}
		idx += n
	}
	return -1
}

func typeName(expr ast.Expr) string {
	switch t := expr.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.SelectorExpr:
		return typeName(t.X) + "." + t.Sel.Name
	case *ast.StarExpr:
		return typeName(t.X)
	}
	return ""
}
