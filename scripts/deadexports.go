//go:build ignore

// Command deadexports lists the module's exported functions and methods
// that no non-test code outside their own file refers to, and fails on
// any that is not on the allowlist below. Such a name is test
// scaffolding in a package's API: unexport it, delete it, or move it
// into the test that calls it.
//
//	go run scripts/deadexports.go
//
// References are matched by name, without type information: a function
// counts as used when another non-test file names it (pkg.F from another
// package, F from another file of its own), a method when any other
// non-test file selects a field or method of that name. The check can
// therefore miss a dead method whose name is common, never the reverse.
// A package whose name ends in "test" (fleettest, after net/http's
// httptest) is test support: its exports are for tests, and are not
// listed.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// allowed are the exported names kept on purpose, each with its reason.
var allowed = map[string]string{
	"internal/fleet.HostsForGroup":      "fleet Hosts over a live shard group for fleet's and serve's tests; it builds them with the unexported newHost, which fleettest cannot reach",
	"internal/fleet.eventHeap.Less":     "heap.Interface",
	"internal/obs.Snapshot.MarshalJSON": "json.Marshaler: the /metrics JSON body",
	"internal/obs.Disable":              "restores the process-wide recording switch after a test in six packages; only obs can reach it",
}

type decl struct {
	key  string // "<dir>.<Func>" or "<dir>.<Type>.<Method>"
	name string
	file string
	pos  token.Position
	recv bool
	pkg  string // directory of the package
}

func main() {
	root := "."
	fset := token.NewFileSet()
	var decls []decl
	// funcRefs[dir+"."+name] and methodRefs[name] are the files that
	// refer to the name.
	funcRefs := map[string]map[string]bool{}
	methodRefs := map[string]map[string]bool{}
	ref := func(m map[string]map[string]bool, key, file string) {
		if m[key] == nil {
			m[key] = map[string]bool{}
		}
		m[key][file] = true
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata" || n == "scripts") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		imports := map[string]string{} // local name → directory
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			rel, ok := strings.CutPrefix(p, "repro/")
			if !ok {
				continue
			}
			local := filepath.Base(rel)
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = rel
		}
		sels := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				sels[n.Name] = true
				if !n.Name.IsExported() || strings.HasSuffix(f.Name.Name, "test") {
					return true
				}
				d := decl{name: n.Name.Name, file: path, pos: fset.Position(n.Pos()), pkg: dir}
				d.key = dir + "." + n.Name.Name
				if n.Recv != nil {
					d.recv = true
					d.key = dir + "." + recvName(n.Recv.List[0].Type) + "." + n.Name.Name
				}
				decls = append(decls, d)
			case *ast.SelectorExpr:
				sels[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					ref(funcRefs, imports[x.Name]+"."+n.Sel.Name, path)
				} else {
					ref(methodRefs, n.Sel.Name, path)
				}
			case *ast.Ident:
				if !sels[n] {
					ref(funcRefs, dir+"."+n.Name, path)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadexports:", err)
		os.Exit(2)
	}
	var dead []string
	seen := map[string]bool{}
	for _, d := range decls {
		refs := funcRefs[d.pkg+"."+d.name]
		if d.recv {
			refs = methodRefs[d.name]
		}
		used := false
		for file := range refs {
			used = used || file != d.file
		}
		if used {
			continue
		}
		seen[d.key] = true
		if _, ok := allowed[d.key]; !ok {
			dead = append(dead, fmt.Sprintf("%s: %s has no non-test caller outside its file", d.pos, d.key))
		}
	}
	for key := range allowed {
		if !seen[key] {
			dead = append(dead, fmt.Sprintf("allowlist: %s is gone or has a caller now; drop it from the list", key))
		}
	}
	sort.Strings(dead)
	for _, line := range dead {
		fmt.Println(line)
	}
	if len(dead) > 0 {
		os.Exit(1)
	}
}

// recvName is the type name of a method receiver: T, *T, T[P] or *T[P].
func recvName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return "?"
		}
	}
}
