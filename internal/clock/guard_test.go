package clock

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// wallClock names the package time functions that read or wait on the
// wall clock.
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true,
	"AfterFunc": true, "Tick": true, "NewTicker": true, "NewTimer": true,
}

const (
	netDeadline = "a net.Conn deadline is wall-clock by definition, and only the TCP transport reaches one"
	ctxBudget   = "a context deadline is wall-clock by definition: the request's remaining budget is read off it"
	latency     = "a latency timer that only feeds a histogram; NewNode's signature is fixed by benchmark/shims.go, so no clock can reach the node"
)

// wallClockAllowed is every wall-clock use the guard lets through, by
// file, enclosing function and call, with how many and why.
var wallClockAllowed = []struct {
	file, fn, call string
	n              int
	why            string
}{
	{"transport/pool.go", "TCP.dial", "time.Now", 1, netDeadline},
	{"transport/pool.go", "muxConn.writeFrames", "time.Now", 1, netDeadline},
	{"transport/pool.go", "TCP.open", "time.Until", 1, ctxBudget},
	{"transport/pool.go", "muxConn.writeFrames", "time.Until", 1, ctxBudget},
	{"transport/tcp.go", "Server.serveConnV2", "time.Now", 1, "the request's budget becomes the reply's net.Conn deadline: " + netDeadline},
	{"sdds/cluster.go", "Cluster.Search", "time.Now", 1, latency},
	{"sdds/cluster.go", "Cluster.Search", "time.Since", 1, latency},
	{"sdds/node.go", "Node.Handler", "time.Now", 1, latency},
	{"sdds/node.go", "Node.Handler", "time.Since", 1, latency},
}

// TestNoWallClockInControlCode: time reaches a decision in internal/sdds
// and internal/transport only through a Clock. Their non-test files use
// the wall clock nowhere but in the allowed places above, so a fake
// clock steps every timer that decides anything.
func TestNoWallClockInControlCode(t *testing.T) {
	got := map[string]int{}        // "file fn call" -> uses
	where := map[string][]string{} // "file fn call" -> positions
	fset := token.NewFileSet()
	for _, dir := range []string{"sdds", "transport"} {
		paths, err := filepath.Glob(filepath.Join("..", dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			timePkg := importName(f, "time")
			if timePkg == "" {
				continue
			}
			file := dir + "/" + filepath.Base(path)
			for _, decl := range f.Decls {
				ast.Inspect(decl, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok || !wallClock[sel.Sel.Name] {
						return true
					}
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == timePkg {
						key := fmt.Sprintf("%s %s time.%s", file, declName(decl), sel.Sel.Name)
						got[key]++
						where[key] = append(where[key], fset.Position(sel.Pos()).String())
					}
					return true
				})
			}
		}
	}
	for _, a := range wallClockAllowed {
		key := fmt.Sprintf("%s %s %s", a.file, a.fn, a.call)
		if got[key] != a.n {
			t.Errorf("%s: %d uses, allow-list says %d (%s)", key, got[key], a.n, a.why)
		}
		delete(got, key)
	}
	var stray []string
	for key := range got {
		stray = append(stray, fmt.Sprintf("%s at %s", key, strings.Join(where[key], ", ")))
	}
	sort.Strings(stray)
	for _, s := range stray {
		t.Errorf("wall clock outside the allow-list: %s; take the time from a clock.Clock", s)
	}
}

// importName is the name f refers to package path by, or "" when f does
// not import it.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == path {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return path
		}
	}
	return ""
}

// declName names a top-level declaration: Func, Type.Method, or "var"
// for everything else.
func declName(d ast.Decl) string {
	fd, ok := d.(*ast.FuncDecl)
	if !ok {
		return "var"
	}
	if fd.Recv == nil {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	if idx, ok := recv.(*ast.IndexExpr); ok {
		recv = idx.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}
