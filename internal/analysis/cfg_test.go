package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// buildCFG parses a single function body and builds its CFG with an
// empty (but non-nil) type info — enough for structural assertions.
func buildCFG(t *testing.T, body string) *CFG {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fd := file.Decls[0].(*ast.FuncDecl)
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
		Defs:  make(map[*ast.Ident]types.Object),
	}
	return FuncCFG(fd.Body, info)
}

// reachable walks Succs from Entry.
func reachable(g *CFG) map[*Block]bool {
	seen := map[*Block]bool{g.Entry: true}
	work := []*Block{g.Entry}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range b.Succs {
			if !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	return seen
}

func TestCFGStraightLine(t *testing.T) {
	g := buildCFG(t, "x := 1\n_ = x")
	seen := reachable(g)
	if !seen[g.Exit] {
		t.Fatal("exit unreachable in straight-line code")
	}
	if got := len(g.RPO()); got != len(seen) {
		t.Fatalf("RPO covers %d blocks, %d reachable", got, len(seen))
	}
}

func TestCFGIfJoins(t *testing.T) {
	g := buildCFG(t, `x := 1
if x > 0 {
	x = 2
} else {
	x = 3
}
_ = x`)
	// The condition block must have two successors (then / else), and
	// both arms must reach Exit through the join.
	var cond *Block
	for b := range reachable(g) {
		if len(b.Succs) == 2 {
			cond = b
			break
		}
	}
	if cond == nil {
		t.Fatal("no two-way branch block found for if/else")
	}
	if !reachable(g)[g.Exit] {
		t.Fatal("exit unreachable through if/else join")
	}
}

func TestCFGLoopBackEdge(t *testing.T) {
	g := buildCFG(t, `for i := 0; i < 3; i++ {
	_ = i
}`)
	// Some reachable block must have a successor with a smaller index —
	// the loop's back edge.
	back := false
	for b := range reachable(g) {
		for _, s := range b.Succs {
			if s.Index < b.Index && s != g.Exit {
				back = true
			}
		}
	}
	if !back {
		t.Fatal("no back edge found for the for loop")
	}
	if !reachable(g)[g.Exit] {
		t.Fatal("exit unreachable after loop")
	}
}

func TestCFGReturnGoesToExit(t *testing.T) {
	g := buildCFG(t, `x := 1
if x > 0 {
	return
}
_ = x`)
	found := false
	for b := range reachable(g) {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.ReturnStmt); ok {
				if len(b.Succs) != 1 || b.Succs[0] != g.Exit {
					t.Fatalf("return block succs = %v, want exit only", b.Succs)
				}
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no reachable block holds the return statement")
	}
}

func TestCFGSwitchFanout(t *testing.T) {
	g := buildCFG(t, `x := 1
switch x {
case 1:
	x = 10
case 2:
	x = 20
default:
	x = 30
}
_ = x`)
	// The switch head must fan out to all three clauses.
	fan := 0
	for b := range reachable(g) {
		if len(b.Succs) > fan {
			fan = len(b.Succs)
		}
	}
	if fan < 3 {
		t.Fatalf("max fan-out %d, want >= 3 for a three-clause switch", fan)
	}
	if !reachable(g)[g.Exit] {
		t.Fatal("exit unreachable after switch")
	}
}

// Preds returns the predecessor lists of every block (indexed like
// Blocks).
func (g *CFG) Preds() [][]*Block {
	preds := make([][]*Block, len(g.Blocks))
	for _, blk := range g.Blocks {
		for _, s := range blk.Succs {
			preds[s.Index] = append(preds[s.Index], blk)
		}
	}
	return preds
}

func TestCFGPreds(t *testing.T) {
	g := buildCFG(t, `x := 1
if x > 0 {
	x = 2
}
_ = x`)
	preds := g.Preds()
	// The join block (and ultimately Exit) must have an inverse edge for
	// every forward edge.
	edges, inverse := 0, 0
	for b := range reachable(g) {
		edges += len(b.Succs)
	}
	for _, ps := range preds {
		inverse += len(ps)
	}
	if edges == 0 || inverse < edges {
		t.Fatalf("preds holds %d inverse edges for %d forward edges", inverse, edges)
	}
}
