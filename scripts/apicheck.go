//go:build ignore

// Command apicheck is a vet-style audit of the public API's naming
// conventions, run in CI (`go run scripts/apicheck.go`). Rules 1-3 and 5
// hold for the public packages (the root fxdist package and client/),
// rule 4 for every serving package:
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
//  4. The paper's evaluation stays offline: no serving package (the
//     root, client, every internal package but the offline one, and the
//     serving binaries) imports the offline package in a non-test file.
//     Every importable package of the module but that one is checked, so
//     no import path from a serving binary reaches it either. Nor does the
//     offline package import the serving stack (the root, engine,
//     storage, netdist, gate) in a non-test file: it prices the counts a
//     retrieval reports, so the cost model cannot drift back in.
//  5. An option type configures something: every exported *Option type
//     is the variadic parameter type of some exported function, so a
//     second option type that only a struct field carries cannot come
//     back.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

var dirs = []string{".", "client"}

// offline is the package of the paper's evaluation (rule 4).
const offline = "fxdist/internal/analysis"

// stack is the serving stack the offline package must not import (rule 4).
var stack = []string{"fxdist", "fxdist/internal/engine", "fxdist/internal/storage", "fxdist/internal/netdist", "fxdist/internal/gate"}

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
	probs, err := checkOffline()
	if err != nil {
		fmt.Fprintln(os.Stderr, "apicheck:", err)
		os.Exit(1)
	}
	problems = append(problems, probs...)
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
	optionTypes := map[string]string{} // exported *Option type -> position
	variadic := map[string]bool{}      // variadic parameter types of exported functions

	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if gen, ok := decl.(*ast.GenDecl); ok && gen.Tok == token.TYPE {
					for _, spec := range gen.Specs {
						ts := spec.(*ast.TypeSpec)
						if ts.Name.IsExported() && strings.HasSuffix(ts.Name.Name, "Option") {
							optionTypes[ts.Name.Name] = fset.Position(ts.Pos()).String()
						}
					}
					continue
				}
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				if params := fn.Type.Params.List; len(params) > 0 {
					if ell, ok := params[len(params)-1].Type.(*ast.Ellipsis); ok {
						variadic[typeName(ell.Elt)] = true
					}
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
	for name, pos := range optionTypes {
		if !variadic[name] {
			problems = append(problems,
				fmt.Sprintf("%s: option type %s is the variadic parameter of no exported function", pos, name))
		}
	}
	return problems, nil
}

// checkOffline applies rule 4 to every serving package and to the
// offline one.
func checkOffline() ([]string, error) {
	internal, err := filepath.Glob("internal/*")
	if err != nil {
		return nil, err
	}
	serving := []string{".", "client", "cmd/fxnode", "cmd/fxgate", "cmd/fxtop"}
	for _, dir := range internal {
		if "fxdist/"+dir != offline {
			serving = append(serving, dir)
		}
	}
	var problems []string
	// check reports every non-test import of dir that forbidden names.
	check := func(dir string, forbidden func(path string) bool, why string) error {
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, pkg := range pkgs {
			for name, file := range pkg.Files {
				for _, imp := range file.Imports {
					if path, _ := strconv.Unquote(imp.Path.Value); forbidden(path) {
						problems = append(problems, fmt.Sprintf("%s imports %s; %s", name, path, why))
					}
				}
			}
		}
		return nil
	}
	for _, dir := range serving {
		if err := check(dir, func(path string) bool { return path == offline },
			"serving code must not link the paper's evaluation"); err != nil {
			return nil, err
		}
	}
	err = check(strings.TrimPrefix(offline, "fxdist/"), func(path string) bool { return slices.Contains(stack, path) },
		"the paper's evaluation must not link the serving stack")
	return problems, err
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
