package sdds

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
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

// TestClientHoldsNoAuthority: one owner per piece of file state. The
// client structs in cluster.go hold only the allowed fields above, and
// coordinator.go names no client type, so no coordinator code can
// write a client field.
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
}
