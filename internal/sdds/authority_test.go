package sdds

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"path/filepath"
	"strings"
	"testing"
)

// clientFields is every field the data-path client may hold, by struct,
// field and type, with why it is not authority over a file. Anything
// else on the client (a record count, an lhstar.State, a ledger) would
// be a second owner of what the Coordinator owns.
var clientFields = map[string][]struct{ name, typ, why string }{
	"Cluster": {
		{"tr", "transport.Transport", "the data path sends its requests through it"},
		{"place", "*Placement", "maps a bucket address to its node; fixed at construction"},
		{"coord", "*Coordinator", "the one link to authority, reached only by method calls"},
		{"mu", "sync.Mutex", "guards files"},
		{"files", "map[FileID]*clientFile", "the client's per-file views, checked below"},
		{"met", "clusterMetrics", "client counters; the coordinator is handed its own copy"},
	},
	"clientFile": {
		{"image", "lhstar.Image", "the image LH* lets lag: IAMs correct it, and it decides nothing"},
		{"iams", "int", "a client statistic"},
		{"merges", "int", "the coordinator's merge count when the image was taken: it only says when to take a new image"},
	},
}

// clientSeam is every Coordinator method cluster.go may call: the one
// bracket around each client op, and what the client needs besides.
var clientSeam = []string{
	"AttachMigrationLog", // forwarded for callers holding only the Cluster
	"File",               // the merge signal: when to take a new image
	"SetMaxLoad",         // forwarded for callers holding only the Cluster
	"do",                 // the shared section, record count, settle and thaw
}

// TestClientHoldsNoAuthority: one owner per piece of file state. The
// client structs in cluster.go hold only the allowed fields above, and
// coordinator.go names no client type, so no coordinator code can
// write a client field. cluster.go reaches the coordinator only through
// clientSeam, no other file of the package names opsMu, and only do
// settles or thaws, so no data-path op can skip the bracket.
func TestClientHoldsNoAuthority(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cluster.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		allowed, checked := clientFields[ts.Name.Name]
		st, isStruct := ts.Type.(*ast.StructType)
		if !checked || !isStruct {
			return false
		}
		seen[ts.Name.Name] = true
		got := map[string]string{}
		for _, fld := range st.Fields.List {
			for _, name := range fld.Names {
				got[name.Name] = types.ExprString(fld.Type)
			}
		}
		for _, a := range allowed {
			if typ, ok := got[a.name]; ok && typ != a.typ {
				t.Errorf("%s.%s is a %s, the allow-list says %s (%s)", ts.Name.Name, a.name, typ, a.typ, a.why)
			}
			delete(got, a.name)
		}
		for name, typ := range got {
			t.Errorf("%s.%s %s is not on the client's allow-list: file state belongs to the Coordinator", ts.Name.Name, name, typ)
		}
		return false
	})
	for name := range clientFields {
		if !seen[name] {
			t.Errorf("cluster.go declares no struct %s", name)
		}
	}

	co, err := parser.ParseFile(fset, "coordinator.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(co, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && clientFields[id.Name] != nil {
			t.Errorf("coordinator.go names the client type %s at %s", id.Name, fset.Position(id.Pos()))
		}
		return true
	})

	called := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.SelectorExpr); ok && x.Sel.Name == "coord" {
				called[sel.Sel.Name] = true
			}
		}
		return true
	})
	want := map[string]bool{}
	for _, m := range clientSeam {
		want[m] = true
	}
	if !maps.Equal(called, want) {
		t.Errorf("cluster.go calls the Coordinator methods %v, want exactly %v", called, want)
	}

	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range file.Decls {
			owner := ""
			if fn, ok := d.(*ast.FuncDecl); ok {
				owner = fn.Name.Name
			}
			ast.Inspect(d, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				switch {
				case !ok:
				case sel.Sel.Name == "opsMu" && name != "coordinator.go":
					t.Errorf("%s takes opsMu: only the coordinator does", fset.Position(sel.Pos()))
				case (sel.Sel.Name == "settle" || sel.Sel.Name == "thaw") && owner != "do" && !strings.HasSuffix(name, "_test.go"):
					t.Errorf("%s calls %s outside the bracket", fset.Position(sel.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
	}
}
