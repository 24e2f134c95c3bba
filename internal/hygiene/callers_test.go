// Package hygiene holds repository-wide source checks. It has no non-test
// code: each check parses the tree with go/parser and fails with file:line
// positions a reader can jump to.
package hygiene

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// declRoots hold the functions the caller check judges; refRoots hold the
// non-test code whose identifiers count as callers. bench/ is its own module
// but builds against this one, and the examples are programs, so both call.
var (
	declRoots = []string{"internal", "cmd"}
	refRoots  = []string{"internal", "cmd", "bench", "examples"}
)

// allowed names the functions that stay without a non-test caller, each with
// its reason. A key is "Name" for a method any type may declare to satisfy
// an interface the standard library calls, or "pkg.Name" / "pkg.Type.Name"
// for one declaration.
var allowed = map[string]string{
	"Unwrap":        "errors.Is/As call it through the error chain",
	"MarshalJSON":   "encoding/json calls it",
	"UnmarshalJSON": "encoding/json calls it",
	"Less":          "sort.Interface",
	"Swap":          "sort.Interface",

	"verifier.Engine.CheckConsistency":    "reference structure check every verifier differential test runs",
	"headerspace.Footprint.InvalidatedBy": "brute-force dispatch reference the traversal index is tested against",
	"wire.PacketHeader":                   "model image of a packet: openflow's data plane vs model differential reads it",

	"headerspace.MustParse":                        "test helper the tests of several packages share",
	"headerspace.Footprint.AddSlice":               "builds any-port footprints in the verifier's and rvaas's tests",
	"controlplane.Controller.UninstallDestination": "withdraws a route so other packages' tests can break a verdict",
	"client.Agent.QuoteVerifications":              "attestation-memo counter the deploy and rvaas tests assert on",
	"client.Agent.SignatureVerifications":          "push-batch verify counter the deploy and rvaas tests assert on",
	"client.Agent.Gaps":                            "gap-recovery events the rvaas and experiments tests read",
}

// TestEveryFunctionHasACaller fails on a top-level function or method in
// non-test code under internal/ or cmd/ whose name no non-test identifier
// outside its own declaration references. An allowlist entry that no longer
// matches such a function fails too, so the list cannot outlive its reason.
func TestEveryFunctionHasACaller(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	var decls []*ast.FuncDecl
	declPkg := map[*ast.FuncDecl]string{}
	// refs counts every identifier by name; a function's own name and body
	// are taken off the count when it is judged.
	refs := map[string]int{}
	for _, dir := range refRoots {
		judged := slices.Contains(declRoots, dir)
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, e fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if e.IsDir() && e.Name() == "testdata" {
				return filepath.SkipDir
			}
			if e.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					refs[id.Name]++
				}
				return true
			})
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && judged && fd.Name.Name != "main" && fd.Name.Name != "init" {
					decls = append(decls, fd)
					declPkg[fd] = f.Name.Name
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(decls) == 0 {
		t.Fatal("no declarations found: the walk did not reach the source tree")
	}

	declared := map[string]int{}
	for _, fd := range decls {
		declared[fd.Name.Name]++
	}
	used := map[string]bool{}
	var dead []string
	for _, fd := range decls {
		name := fd.Name.Name
		own := 0
		if fd.Body != nil {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == name {
					own++
				}
				return true
			})
		}
		if refs[name]-declared[name]-own > 0 {
			continue
		}
		key := declPkg[fd] + "." + name
		if fd.Recv != nil {
			key = declPkg[fd] + "." + recvType(fd.Recv.List[0].Type) + "." + name
		}
		if _, ok := allowed[name]; ok {
			used[name] = true
			continue
		}
		if _, ok := allowed[key]; ok {
			used[key] = true
			continue
		}
		pos := fset.Position(fd.Name.Pos())
		rel, _ := filepath.Rel(root, pos.Filename)
		dead = append(dead, fmt.Sprintf("%s:%d %s", rel, pos.Line, key))
	}
	sort.Strings(dead)
	for _, s := range dead {
		t.Errorf("%s: no non-test caller; delete it, or move it into a _test.go file if only tests need it", s)
	}
	for k, why := range allowed {
		if !used[k] {
			t.Errorf("allowlist entry %q (%s) matches no function that lacks a caller; remove it", k, why)
		}
	}
}

// recvType names a method's receiver type without pointer or type parameters.
func recvType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvType(x.X)
	case *ast.IndexExpr:
		return recvType(x.X)
	case *ast.IndexListExpr:
		return recvType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
