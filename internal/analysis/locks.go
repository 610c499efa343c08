package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// LockKind distinguishes shared from exclusive acquisition.
type LockKind int

const (
	LockNone  LockKind = iota
	LockRead           // RLock
	LockWrite          // Lock
)

// Held is the set of mutexes held at a program point, keyed by the
// canonical path of the expression they were locked through (see
// ExprKey).  Values record the strongest mode held.
type Held map[string]heldLock

type heldLock struct {
	Kind LockKind
	// Obj is the types.Object of the mutex field when the lock
	// expression ends in a field selector (nil for plain variables);
	// lockcheck resolves hot/order annotations through it.
	Obj types.Object
}

// Holds reports whether key is held at all.
func (h Held) Holds(key string) bool { return h[key].Kind != LockNone }

// HoldsWrite reports whether key is held exclusively.
func (h Held) HoldsWrite(key string) bool { return h[key].Kind == LockWrite }

func (h Held) clone() Held {
	c := make(Held, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

// ExprKey renders an expression as a canonical access path rooted at a
// variable's identity: "obj0xc000.ctxMu", "obj0xc000.shards.[].mu".
// Index components collapse to "[]" — two different elements of one
// container share a key, a deliberate imprecision that errs toward
// believing a lock is held.  ok is false for expressions with no stable
// root (calls, literals), which the lock passes skip.
func ExprKey(info *types.Info, e ast.Expr) (string, bool) {
	switch v := e.(type) {
	case *ast.Ident:
		obj := info.ObjectOf(v)
		if obj == nil {
			return "", false
		}
		return fmt.Sprintf("obj%p", obj), true
	case *ast.SelectorExpr:
		base, ok := ExprKey(info, v.X)
		if !ok {
			// X may itself be a package qualifier (pkg.Var).
			if id, isIdent := v.X.(*ast.Ident); isIdent {
				if _, isPkg := info.ObjectOf(id).(*types.PkgName); isPkg {
					obj := info.ObjectOf(v.Sel)
					if obj == nil {
						return "", false
					}
					return fmt.Sprintf("obj%p", obj), true
				}
			}
			return "", false
		}
		return base + "." + v.Sel.Name, true
	case *ast.ParenExpr:
		return ExprKey(info, v.X)
	case *ast.StarExpr:
		return ExprKey(info, v.X)
	case *ast.UnaryExpr:
		return ExprKey(info, v.X)
	case *ast.IndexExpr:
		base, ok := ExprKey(info, v.X)
		if !ok {
			return "", false
		}
		return base + ".[]", true
	}
	return "", false
}

// RootIdent returns the leftmost identifier of an access path, or nil.
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.UnaryExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// isMutexType reports whether t (after pointer indirection) is
// sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// lockCall classifies a call expression as a mutex operation.  It
// returns the mutex expression (the receiver of Lock/Unlock), the mode,
// and whether the call releases rather than acquires.
func lockCall(info *types.Info, call *ast.CallExpr) (mu ast.Expr, kind LockKind, release bool, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, LockNone, false, false
	}
	var k LockKind
	switch sel.Sel.Name {
	case "Lock", "TryLock":
		k, release = LockWrite, false
	case "RLock", "TryRLock":
		k, release = LockRead, false
	case "Unlock":
		k, release = LockWrite, true
	case "RUnlock":
		k, release = LockRead, true
	default:
		return nil, LockNone, false, false
	}
	tv, found := info.Types[sel.X]
	if !found || !isMutexType(tv.Type) {
		return nil, LockNone, false, false
	}
	return sel.X, k, release, true
}

// mutexFieldObj returns the types.Object of the field the mutex
// expression ends in (s.ctxMu -> ctxMu's object), or nil.
func mutexFieldObj(info *types.Info, mu ast.Expr) types.Object {
	for {
		switch v := mu.(type) {
		case *ast.ParenExpr:
			mu = v.X
		case *ast.StarExpr:
			mu = v.X
		case *ast.SelectorExpr:
			return info.ObjectOf(v.Sel)
		case *ast.Ident:
			return info.ObjectOf(v)
		default:
			return nil
		}
	}
}

// LockEvent is delivered to the walk callback on every acquisition.
type LockEvent struct {
	Call *ast.CallExpr
	Key  string
	Kind LockKind
	Obj  types.Object // mutex field object, nil for plain variables
}

// LockWalker streams a function body in source order, maintaining the
// held-lock set.
//
// The flow model is deliberately simple and errs toward silence:
// statements in a block are processed in order; Lock/RLock adds to the
// set, Unlock/RUnlock removes, and a deferred unlock leaves the lock
// held to the end of the function.  Nested blocks (if/for/switch/select
// bodies) are walked with a copy of the set, so acquisitions inside a
// branch do not leak past it.  Function literals inherit the held set
// at their syntactic position — they are overwhelmingly synchronous
// callbacks here — except goroutine bodies (`go func(){...}`), which
// start empty.
type LockWalker struct {
	Info *types.Info
	// OnNode is called for every expression node with the current held
	// set (shared map: do not retain).
	OnNode func(n ast.Node, held Held)
	// OnLock is called for every acquisition with the held set as it
	// was before the acquisition.
	OnLock func(ev LockEvent, held Held)
}

// Walk processes one function body.
func (w *LockWalker) Walk(body *ast.BlockStmt) {
	if body == nil {
		return
	}
	w.stmts(body.List, make(Held))
}

func (w *LockWalker) stmts(list []ast.Stmt, held Held) {
	for _, s := range list {
		w.stmt(s, held)
	}
}

func (w *LockWalker) stmt(s ast.Stmt, held Held) {
	switch v := s.(type) {
	case *ast.BlockStmt:
		w.stmts(v.List, held)
	case *ast.ExprStmt:
		w.expr(v.X, held)
	case *ast.AssignStmt:
		for _, e := range v.Rhs {
			w.expr(e, held)
		}
		for _, e := range v.Lhs {
			w.expr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := v.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.expr(e, held)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range v.Results {
			w.expr(e, held)
		}
	case *ast.IncDecStmt:
		w.expr(v.X, held)
	case *ast.SendStmt:
		w.expr(v.Chan, held)
		w.expr(v.Value, held)
		if w.OnNode != nil {
			w.OnNode(v, held)
		}
	case *ast.DeferStmt:
		// A deferred unlock keeps the lock held for the rest of the
		// function; a deferred anything-else is analyzed with the held
		// set at the defer site (close enough: it runs at return, when
		// non-deferred unlocks have usually fired, but treating it as
		// "now" errs toward believing locks are held).
		if _, _, release, ok := lockCall(w.Info, v.Call); ok && release {
			for _, a := range v.Call.Args {
				w.expr(a, held)
			}
			return
		}
		w.expr(v.Call, held)
	case *ast.GoStmt:
		for _, a := range v.Call.Args {
			w.expr(a, held)
		}
		if fl, ok := v.Call.Fun.(*ast.FuncLit); ok {
			w.stmts(fl.Body.List, make(Held)) // new goroutine: nothing held
		} else {
			w.expr(v.Call.Fun, held)
		}
	case *ast.IfStmt:
		if v.Init != nil {
			w.stmt(v.Init, held)
		}
		w.expr(v.Cond, held)
		w.stmts(v.Body.List, held.clone())
		if v.Else != nil {
			w.stmt(v.Else, held.clone())
		}
	case *ast.ForStmt:
		inner := held.clone()
		if v.Init != nil {
			w.stmt(v.Init, inner)
		}
		if v.Cond != nil {
			w.expr(v.Cond, inner)
		}
		w.stmts(v.Body.List, inner)
		if v.Post != nil {
			w.stmt(v.Post, inner)
		}
	case *ast.RangeStmt:
		w.expr(v.X, held)
		if w.OnNode != nil {
			w.OnNode(v, held)
		}
		w.stmts(v.Body.List, held.clone())
	case *ast.SwitchStmt:
		if v.Init != nil {
			w.stmt(v.Init, held)
		}
		if v.Tag != nil {
			w.expr(v.Tag, held)
		}
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				inner := held.clone()
				for _, e := range cc.List {
					w.expr(e, inner)
				}
				w.stmts(cc.Body, inner)
			}
		}
	case *ast.TypeSwitchStmt:
		if v.Init != nil {
			w.stmt(v.Init, held)
		}
		w.stmt(v.Assign, held)
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, held.clone())
			}
		}
	case *ast.SelectStmt:
		if w.OnNode != nil {
			w.OnNode(v, held)
		}
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				inner := held.clone()
				// The comm op itself is part of the select (already
				// reported as one blocking point); only its operands
				// are walked.
				switch comm := cc.Comm.(type) {
				case *ast.SendStmt:
					w.expr(comm.Chan, inner)
					w.expr(comm.Value, inner)
				case *ast.ExprStmt:
					if un, ok := comm.X.(*ast.UnaryExpr); ok {
						w.expr(un.X, inner)
					} else {
						w.expr(comm.X, inner)
					}
				case *ast.AssignStmt:
					for _, e := range comm.Rhs {
						if un, ok := e.(*ast.UnaryExpr); ok {
							w.expr(un.X, inner)
						} else {
							w.expr(e, inner)
						}
					}
					for _, e := range comm.Lhs {
						w.expr(e, inner)
					}
				}
				w.stmts(cc.Body, inner)
			}
		}
	case *ast.LabeledStmt:
		w.stmt(v.Stmt, held)
	}
}

// expr walks an expression in evaluation order, applying lock
// transitions for mutex calls and reporting every node to OnNode.
func (w *LockWalker) expr(e ast.Expr, held Held) {
	if e == nil {
		return
	}
	switch v := e.(type) {
	case *ast.CallExpr:
		if mu, kind, release, ok := lockCall(w.Info, v); ok {
			key, keyOK := ExprKey(w.Info, mu)
			if keyOK {
				if release {
					delete(held, key)
				} else {
					if w.OnLock != nil {
						w.OnLock(LockEvent{Call: v, Key: key, Kind: kind, Obj: mutexFieldObj(w.Info, mu)}, held)
					}
					prev := held[key]
					if kind > prev.Kind {
						held[key] = heldLock{Kind: kind, Obj: mutexFieldObj(w.Info, mu)}
					}
				}
			}
			// Still surface the receiver path so guarded-field checks
			// see accesses buried in the mutex expression (rare).
			return
		}
		w.expr(v.Fun, held)
		for _, a := range v.Args {
			w.expr(a, held)
		}
		if w.OnNode != nil {
			w.OnNode(v, held)
		}
	case *ast.FuncLit:
		w.stmts(v.Body.List, held.clone())
	case *ast.SelectorExpr:
		w.expr(v.X, held)
		if w.OnNode != nil {
			w.OnNode(v, held)
		}
	case *ast.ParenExpr:
		w.expr(v.X, held)
	case *ast.StarExpr:
		w.expr(v.X, held)
	case *ast.UnaryExpr:
		w.expr(v.X, held)
		if v.Op.String() == "<-" && w.OnNode != nil {
			w.OnNode(v, held)
		}
	case *ast.BinaryExpr:
		w.expr(v.X, held)
		w.expr(v.Y, held)
	case *ast.IndexExpr:
		w.expr(v.X, held)
		w.expr(v.Index, held)
	case *ast.IndexListExpr:
		w.expr(v.X, held)
		for _, ix := range v.Indices {
			w.expr(ix, held)
		}
	case *ast.SliceExpr:
		w.expr(v.X, held)
		w.expr(v.Low, held)
		w.expr(v.High, held)
		w.expr(v.Max, held)
	case *ast.TypeAssertExpr:
		w.expr(v.X, held)
	case *ast.CompositeLit:
		for _, el := range v.Elts {
			w.expr(el, held)
		}
	case *ast.KeyValueExpr:
		w.expr(v.Key, held)
		w.expr(v.Value, held)
	}
}

// LocalRoots returns the variables fn creates itself — `s := &Store{…}`,
// `s := new(Store)`, or `var s Store`.  Accesses rooted at them are
// exempt from guard checks: nothing else can see the value yet.
func LocalRoots(info *types.Info, fn *ast.FuncDecl) map[types.Object]bool {
	roots := make(map[types.Object]bool)
	if fn.Body == nil {
		return roots
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range v.Lhs {
				if i >= len(v.Rhs) {
					break
				}
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if creationExpr(v.Rhs[i]) {
					if obj := info.ObjectOf(id); obj != nil {
						roots[obj] = true
					}
				}
			}
		case *ast.ValueSpec:
			if len(v.Values) == 0 && v.Type != nil {
				for _, id := range v.Names {
					if obj := info.ObjectOf(id); obj != nil {
						roots[obj] = true
					}
				}
			}
			for i, id := range v.Names {
				if i < len(v.Values) && creationExpr(v.Values[i]) {
					if obj := info.ObjectOf(id); obj != nil {
						roots[obj] = true
					}
				}
			}
		}
		return true
	})
	return roots
}

func creationExpr(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		_, isLit := v.X.(*ast.CompositeLit)
		return v.Op.String() == "&" && isLit
	case *ast.CallExpr:
		if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}

// FuncDisplayName renders a function's name for diagnostics
// ("(*Store).Stats", "Open").
func FuncDisplayName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	var sb strings.Builder
	sb.WriteString("(")
	t := fn.Recv.List[0].Type
	if se, ok := t.(*ast.StarExpr); ok {
		sb.WriteString("*")
		t = se.X
	}
	if id, ok := t.(*ast.Ident); ok {
		sb.WriteString(id.Name)
	}
	sb.WriteString(").")
	sb.WriteString(fn.Name.Name)
	return sb.String()
}
