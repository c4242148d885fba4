package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// maxReachAllow bounds scripts/reach.allow: what no entry point runs is
// deleted, moved test-side or named there, and the names stay few.
const maxReachAllow = 52

// TestReachAllowlist holds scripts/reach.allow, the list of functions
// scripts/reach.sh may report unreached, to its format: every entry is
// "path Func — reason" with a reason, no entry appears twice, there are at
// most maxReachAllow of them, and each names a function declared in that
// file under internal/ — so a rename or a deletion cannot strand an entry.
func TestReachAllowlist(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("scripts", "reach.allow"))
	if err != nil {
		t.Fatal(err)
	}
	declared := make(map[string]map[string]bool) // by file
	seen := make(map[string]int)                 // entry -> line
	entries := 0
	for i, line := range strings.Split(string(data), "\n") {
		n := i + 1
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		entries++
		entry, reason, ok := strings.Cut(line, " — ")
		if !ok || strings.TrimSpace(reason) == "" {
			t.Errorf("line %d: %q has no reason (want: path Func — reason)", n, line)
			continue
		}
		f := strings.Fields(entry)
		if len(f) != 2 {
			t.Errorf("line %d: %q is not \"path Func\"", n, entry)
			continue
		}
		path, fn := f[0], f[1]
		key := path + " " + fn
		if prev, dup := seen[key]; dup {
			t.Errorf("line %d: %s already listed on line %d", n, key, prev)
			continue
		}
		seen[key] = n
		if !strings.HasPrefix(path, "internal/") || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			t.Errorf("line %d: %s is not a non-test Go file under internal/", n, path)
			continue
		}
		if declared[path] == nil {
			if declared[path], err = funcNames(path); err != nil {
				t.Errorf("line %d: %v", n, err)
				continue
			}
		}
		if !declared[path][fn] {
			t.Errorf("line %d: %s declares no function %s", n, path, fn)
		}
	}
	if entries > maxReachAllow {
		t.Errorf("scripts/reach.allow has %d entries, more than %d", entries, maxReachAllow)
	}
}

// funcNames returns the functions declared in a Go file, spelled as
// `go tool covdata func` prints them: F, T.M, *T.M, and a bare M for a
// method of a generic type.
func funcNames(path string) (map[string]bool, error) {
	file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	names := make(map[string]bool)
	for _, d := range file.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		name := fd.Name.Name
		if fd.Recv != nil {
			typ, star := fd.Recv.List[0].Type, ""
			if s, ok := typ.(*ast.StarExpr); ok {
				typ, star = s.X, "*"
			}
			if id, ok := typ.(*ast.Ident); ok {
				name = star + id.Name + "." + name
			}
		}
		names[name] = true
	}
	return names, nil
}
