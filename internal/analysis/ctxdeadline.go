package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CtxDeadline enforces the transport-liveness contract of the network
// layers: a one-shot protocol cannot retry, so every read or write on
// a deadline-capable connection must be preceded — in the same
// function — by an explicit deadline decision on that connection.
// "Decision" includes clearing (SetReadDeadline(time.Time{})): the
// point is that unbounded blocking is written down, reviewed, and
// machine-visible, never accidental. Flagged uses are direct
// Read/Write/ReadFrom/WriteTo calls on the conn and handing the conn
// to a codec or buffered wrapper (gob/json NewEncoder/NewDecoder,
// bufio.NewReader/NewWriter, io.Copy/ReadAll/ReadFull) that will
// perform the I/O.
//
// The rule applies only to the packages that own wire I/O
// (internal/fednet, internal/serve, internal/chaos); the analysis is
// per-function and position-ordered, so a deadline set by a helper
// does not satisfy it — each function touching the wire states its own
// budget. Conns are tracked whether they are held in a local variable
// or in a struct field (c.inner.Read resolves to the field object).
// The one exemption is the conn-wrapper forwarder: a Read/Write method
// whose receiver itself exposes SetReadDeadline IS the conn from the
// caller's perspective — the deadline decision belongs to the caller
// and is forwarded, so requiring another one inside the forwarder
// would demand a second budget for the same operation.
var CtxDeadline = &Analyzer{
	Name: "ctxdeadline",
	Doc:  "require a deadline decision on a conn before reads/writes in the network packages",
	Run:  runCtxDeadline,
}

// deadlinePackages are the import-path suffixes the rule binds;
// "ctxdeadline" admits the fixture package.
var deadlinePackages = []string{"internal/fednet", "internal/serve", "internal/chaos", "internal/store", "ctxdeadline"}

// ioWrappers maps package path → constructor/function names that take
// ownership of a conn's I/O.
var ioWrappers = map[string]map[string]bool{
	"encoding/gob":  {"NewEncoder": true, "NewDecoder": true},
	"encoding/json": {"NewEncoder": true, "NewDecoder": true},
	"bufio":         {"NewReader": true, "NewWriter": true, "NewReadWriter": true, "NewScanner": true},
	"io":            {"Copy": true, "CopyN": true, "ReadAll": true, "ReadFull": true},
}

func runCtxDeadline(pass *Pass) {
	applies := false
	for _, suffix := range deadlinePackages {
		if strings.HasSuffix(pass.Pkg.Path(), suffix) {
			applies = true
		}
	}
	if !applies {
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if isConnForwarder(pass, fn) {
				continue
			}
			checkDeadlines(pass, fn.Body)
		}
	}
}

// forwarderMethods are the I/O methods a conn wrapper re-exposes; when
// the receiver itself carries the deadline surface, the budget belongs
// to the wrapper's caller and is forwarded, not re-decided inside.
var forwarderMethods = map[string]bool{"Read": true, "Write": true, "ReadFrom": true, "WriteTo": true}

// isConnForwarder reports whether fn is an I/O method on a receiver
// type that itself exposes SetReadDeadline — the wrapper IS the conn.
func isConnForwarder(pass *Pass, fn *ast.FuncDecl) bool {
	if fn.Recv == nil || !forwarderMethods[fn.Name.Name] {
		return false
	}
	def, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func)
	if !ok {
		return false
	}
	recv := def.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	m, _, _ := types.LookupFieldOrMethod(recv.Type(), true, pass.Pkg, "SetReadDeadline")
	_, isFunc := m.(*types.Func)
	return isFunc
}

// deadlineSetters maps the Set*Deadline method name to the directions
// it bounds.
var deadlineSetters = map[string]struct{ read, write bool }{
	"SetDeadline":      {read: true, write: true},
	"SetReadDeadline":  {read: true},
	"SetWriteDeadline": {write: true},
}

func checkDeadlines(pass *Pass, body *ast.BlockStmt) {
	// First sweep: where is each conn object's deadline set?
	type setters struct{ read, write []token.Pos }
	set := map[types.Object]*setters{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		dir, ok := deadlineSetters[sel.Sel.Name]
		if !ok {
			return true
		}
		obj := connObject(pass, sel.X)
		if obj == nil {
			return true
		}
		s := set[obj]
		if s == nil {
			s = &setters{}
			set[obj] = s
		}
		if dir.read {
			s.read = append(s.read, call.Pos())
		}
		if dir.write {
			s.write = append(s.write, call.Pos())
		}
		return true
	})
	before := func(positions []token.Pos, use token.Pos) bool {
		for _, pos := range positions {
			if pos < use {
				return true
			}
		}
		return false
	}
	// Second sweep: every I/O use must see an earlier deadline decision.
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if obj := connObject(pass, sel.X); obj != nil && hasDeadlineMethods(pass, obj) {
				s := set[obj]
				switch sel.Sel.Name {
				case "Read", "ReadFrom":
					if s == nil || !before(s.read, call.Pos()) {
						pass.Reportf(call.Pos(),
							"%s.%s without a prior read-deadline decision on %s in this function", obj.Name(), sel.Sel.Name, obj.Name())
					}
				case "Write", "WriteTo":
					if s == nil || !before(s.write, call.Pos()) {
						pass.Reportf(call.Pos(),
							"%s.%s without a prior write-deadline decision on %s in this function", obj.Name(), sel.Sel.Name, obj.Name())
					}
				}
			}
		}
		if name, ok := wrapperCall(pass, call); ok {
			for _, arg := range call.Args {
				obj := connObject(pass, arg)
				if obj == nil || !hasDeadlineMethods(pass, obj) {
					continue
				}
				s := set[obj]
				if s != nil && (before(s.read, call.Pos()) || before(s.write, call.Pos())) {
					continue
				}
				pass.Reportf(call.Pos(),
					"%s handed to %s without a prior deadline decision on the conn in this function", obj.Name(), name)
			}
		}
		return true
	})
}

// wrapperCall reports whether call hands its argument's I/O to a codec
// or copier, returning a printable name.
func wrapperCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	names := ioWrappers[pn.Imported().Path()]
	if names == nil || !names[sel.Sel.Name] {
		return "", false
	}
	return pn.Imported().Name() + "." + sel.Sel.Name, true
}

// connObject resolves the expression holding a conn: a bare identifier
// (local, parameter) or a field selector like c.conn — the latter via
// the type checker's selection record, so the same struct field is one
// object no matter which expression spells it. Deeper chains
// (a.b.conn) resolve to the final field, which is the conn's identity
// for the position-ordered matching this analysis does.
func connObject(pass *Pass, e ast.Expr) types.Object {
	if obj := identObject(pass, e); obj != nil {
		return obj
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	return s.Obj()
}

// hasDeadlineMethods reports whether the object's type exposes the
// net.Conn deadline surface — the signal that deadlines are available
// and therefore required.
func hasDeadlineMethods(pass *Pass, obj types.Object) bool {
	t := obj.Type()
	if t == nil {
		return false
	}
	m, _, _ := types.LookupFieldOrMethod(t, true, pass.Pkg, "SetReadDeadline")
	_, isFunc := m.(*types.Func)
	return isFunc
}
