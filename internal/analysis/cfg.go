package analysis

// Control-flow graphs over go/ast.  The dataflow analyzer ackorder
// needs "on every path" / "on some path" answers that the
// source-order LockWalker cannot give: a fact established inside one
// branch must survive the join, and loops must reach a fixed point.
// FuncCFG explodes a function body into basic blocks whose Nodes are
// the simple statements and control expressions in evaluation order;
// analyzers run a worklist over Blocks in reverse postorder.
//
// The graph is deliberately modest:
//
//   - Function literals are NOT inlined; the FuncLit expression appears
//     as a node and analyzers decide whether to recurse.
//   - defer/go statements appear as ordinary nodes at their syntactic
//     position.
//   - goto is treated as terminating (edge to Exit) — the repo style
//     bans it, and a conservative edge errs toward silence.
//   - panic(...) and calls to os.Exit / log.Fatal* end their block with
//     an edge to Exit.

import (
	"go/ast"
	"go/types"
)

// CFG is the control-flow graph of one function body.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block // every return/panic path leads here; carries no nodes
}

// Block is one basic block: a maximal run of straight-line nodes.
type Block struct {
	Index int
	// Nodes holds simple statements (assign, expr, incdec, decl, send,
	// defer, go, return) and the control expressions of branches
	// (if-cond, for-cond, switch-tag, range-x) in evaluation order.
	Nodes []ast.Node
	Succs []*Block
}

type cfgBuilder struct {
	g    *CFG
	cur  *Block // nil while the current point is unreachable
	info *types.Info
	// break/continue targets, innermost last; label "" matches the
	// innermost enclosing loop/switch.
	breaks    []branchTarget
	continues []branchTarget
}

type branchTarget struct {
	label string
	block *Block
}

// FuncCFG builds the CFG for a function body.  info may be nil; it is
// only used to recognise terminating calls (os.Exit, log.Fatal*).
func FuncCFG(body *ast.BlockStmt, info *types.Info) *CFG {
	g := &CFG{}
	b := &cfgBuilder{g: g, info: info}
	g.Entry = b.newBlock()
	g.Exit = b.newBlock()
	b.cur = g.Entry
	if body != nil {
		b.stmts(body.List)
	}
	b.jump(g.Exit)
	return g
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *cfgBuilder) add(n ast.Node) {
	if b.cur != nil && n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

// jump wires the current block to dst and leaves the point unreachable.
func (b *cfgBuilder) jump(dst *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, dst)
	}
	b.cur = nil
}

// startBlock begins dst as the new current block.
func (b *cfgBuilder) startBlock(dst *Block) { b.cur = dst }

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

func (b *cfgBuilder) findTarget(stack []branchTarget, label string) *Block {
	for i := len(stack) - 1; i >= 0; i-- {
		// An unlabeled break/continue binds to the innermost target
		// (labeled or not); a labeled one walks out to the match.
		if label == "" || stack[i].label == label {
			return stack[i].block
		}
	}
	return b.g.Exit // unknown label: conservative
}

func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	if b.cur == nil && !isLabeledOrBlock(s) {
		// Unreachable straight-line code: skip (nothing joins back).
		return
	}
	switch v := s.(type) {
	case *ast.BlockStmt:
		if b.cur == nil {
			return
		}
		b.stmts(v.List)
	case *ast.LabeledStmt:
		// Start a fresh block so a labeled loop's break/continue can
		// target it; goto labels are not wired (see package doc).
		next := b.newBlock()
		b.jump(next)
		b.startBlock(next)
		b.stmt(v.Stmt, v.Label.Name)
	case *ast.ReturnStmt:
		b.add(v)
		b.jump(b.g.Exit)
	case *ast.BranchStmt:
		switch v.Tok.String() {
		case "break":
			b.jump(b.findTarget(b.breaks, labelName(v)))
		case "continue":
			b.jump(b.findTarget(b.continues, labelName(v)))
		case "goto":
			b.jump(b.g.Exit)
		case "fallthrough":
			// Handled by the switch lowering (clause bodies are chained);
			// reaching here means a malformed tree — ignore.
		}
	case *ast.IfStmt:
		if v.Init != nil {
			b.add(v.Init)
		}
		b.add(v.Cond)
		head := b.cur
		after := b.newBlock()
		thenB := b.newBlock()
		head.Succs = append(head.Succs, thenB)
		b.startBlock(thenB)
		b.stmts(v.Body.List)
		b.jump(after)
		if v.Else != nil {
			elseB := b.newBlock()
			head.Succs = append(head.Succs, elseB)
			b.startBlock(elseB)
			b.stmt(v.Else, "")
			b.jump(after)
		} else {
			head.Succs = append(head.Succs, after)
		}
		b.startBlock(after)
	case *ast.ForStmt:
		if v.Init != nil {
			b.add(v.Init)
		}
		head := b.newBlock()
		after := b.newBlock()
		post := head
		if v.Post != nil {
			post = b.newBlock()
		}
		b.jump(head)
		b.startBlock(head)
		if v.Cond != nil {
			b.add(v.Cond)
			head.Succs = append(head.Succs, after)
		}
		body := b.newBlock()
		head.Succs = append(head.Succs, body)
		b.pushLoop(label, after, post)
		b.startBlock(body)
		b.stmts(v.Body.List)
		b.popLoop()
		b.jump(post)
		if v.Post != nil {
			b.startBlock(post)
			b.add(v.Post)
			b.jump(head)
		}
		b.startBlock(after)
	case *ast.RangeStmt:
		head := b.newBlock()
		after := b.newBlock()
		b.jump(head)
		b.startBlock(head)
		b.add(v) // the range clause itself (X eval + key/value assign)
		head.Succs = append(head.Succs, after)
		body := b.newBlock()
		head.Succs = append(head.Succs, body)
		b.pushLoop(label, after, head)
		b.startBlock(body)
		b.stmts(v.Body.List)
		b.popLoop()
		b.jump(head)
		b.startBlock(after)
	case *ast.SwitchStmt:
		if v.Init != nil {
			b.add(v.Init)
		}
		if v.Tag != nil {
			b.add(v.Tag)
		}
		b.switchClauses(v.Body, label, nil)
	case *ast.TypeSwitchStmt:
		if v.Init != nil {
			b.add(v.Init)
		}
		b.switchClauses(v.Body, label, v.Assign)
	case *ast.SelectStmt:
		head := b.cur
		after := b.newBlock()
		b.breaks = append(b.breaks, branchTarget{label, after})
		any := false
		for _, c := range v.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			any = true
			clause := b.newBlock()
			head.Succs = append(head.Succs, clause)
			b.startBlock(clause)
			if cc.Comm != nil {
				b.add(cc.Comm)
			}
			b.stmts(cc.Body)
			b.jump(after)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		if !any {
			head.Succs = append(head.Succs, after)
		}
		b.cur = nil
		b.startBlock(after)
	case *ast.ExprStmt:
		b.add(v)
		if b.terminates(v.X) {
			b.jump(b.g.Exit)
		}
	default:
		// Assign, IncDec, Send, Decl, Defer, Go, Empty: straight-line.
		b.add(s)
	}
}

// switchClauses lowers (type)switch bodies.  assign is the type-switch
// assign statement, recorded at the head of every clause.
func (b *cfgBuilder) switchClauses(body *ast.BlockStmt, label string, assign ast.Stmt) {
	head := b.cur
	after := b.newBlock()
	b.breaks = append(b.breaks, branchTarget{label, after})
	var clauses []*ast.CaseClause
	var blocks []*Block
	hasDefault := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		clauses = append(clauses, cc)
		blocks = append(blocks, b.newBlock())
	}
	for i, cc := range clauses {
		head.Succs = append(head.Succs, blocks[i])
		b.startBlock(blocks[i])
		if assign != nil {
			b.add(assign)
		}
		for _, e := range cc.List {
			b.add(e)
		}
		b.stmts(cc.Body)
		if b.cur != nil && i+1 < len(blocks) && endsInFallthrough(cc.Body) {
			b.jump(blocks[i+1])
		} else {
			b.jump(after)
		}
	}
	if !hasDefault {
		head.Succs = append(head.Succs, after)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = nil
	b.startBlock(after)
}

func (b *cfgBuilder) pushLoop(label string, brk, cont *Block) {
	b.breaks = append(b.breaks, branchTarget{label, brk})
	b.continues = append(b.continues, branchTarget{label, cont})
}

func (b *cfgBuilder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

// terminates reports whether a call expression never returns.
func (b *cfgBuilder) terminates(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if b.info == nil {
			return false
		}
		if fn, ok := b.info.ObjectOf(fun.Sel).(*types.Func); ok && fn.Pkg() != nil {
			switch fn.Pkg().Path() + "." + fn.Name() {
			case "os.Exit", "log.Fatal", "log.Fatalf", "log.Fatalln",
				"log.Panic", "log.Panicf", "log.Panicln", "runtime.Goexit":
				return true
			}
		}
	}
	return false
}

func labelName(v *ast.BranchStmt) string {
	if v.Label != nil {
		return v.Label.Name
	}
	return ""
}

func isLabeledOrBlock(s ast.Stmt) bool {
	switch s.(type) {
	case *ast.LabeledStmt:
		return true
	}
	return false
}

func endsInFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	last := body[len(body)-1]
	if ls, ok := last.(*ast.LabeledStmt); ok {
		last = ls.Stmt
	}
	br, ok := last.(*ast.BranchStmt)
	return ok && br.Tok.String() == "fallthrough"
}

// RPO returns the blocks reachable from Entry in reverse postorder —
// the iteration order that makes forward dataflow converge fastest.
func (g *CFG) RPO() []*Block {
	seen := make([]bool, len(g.Blocks))
	var post []*Block
	var dfs func(*Block)
	dfs = func(blk *Block) {
		seen[blk.Index] = true
		for _, s := range blk.Succs {
			if !seen[s.Index] {
				dfs(s)
			}
		}
		post = append(post, blk)
	}
	dfs(g.Entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}
