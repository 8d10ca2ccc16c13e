package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MetricHygiene enforces the obs metric-registration contract.
// Registry.Counter/Gauge/Histogram/CounterVec are idempotent lookups
// under a mutex, which makes calling them in hot code *work* — and
// that is exactly the trap: a registration inside a retry loop or a
// per-request handler takes the registry lock per iteration and hides
// the instrument set from a reader of the constructor. Two shapes are
// flagged:
//
//   - a registration call lexically inside a for/range body — hoist it
//     above the loop (the fednet client retry-loop shape);
//   - a registration call inside a function that receives an
//     *http.Request — per-request paths must capture instruments built
//     at construction time.
//
// The third rule guards label cardinality: CounterVec.With(v) where v
// is built by fmt/strconv/strings derivation or string concatenation
// is unbounded — one time series per distinct request value — and is
// flagged; literals, plain identifiers, and field selections from a
// bounded enum pass.
var MetricHygiene = &Analyzer{
	Name: "metrichygiene",
	Doc:  "restrict metric registration to init/constructor paths and label values to bounded sets",
	Run:  runMetricHygiene,
}

func runMetricHygiene(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkMetricHygiene(pass, fn, fn.Body)
		}
	}
}

// registryMethods are the registration entry points on *obs.Registry.
var registryMethods = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true, "CounterVec": true,
}

// isRegistrationCall reports whether call registers a metric on an
// obs Registry (matched by package-path suffix so fixture packages
// importing the real obs package are covered identically).
func isRegistrationCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !registryMethods[sel.Sel.Name] {
		return false
	}
	return isObsMethod(pass, sel, "Registry")
}

func isObsMethod(pass *Pass, sel *ast.SelectorExpr, typeName string) bool {
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return false
	}
	t := selection.Recv()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/obs")
}

// hasRequestParam reports whether the function type receives an
// *http.Request — the marker of a per-request path.
func hasRequestParam(pass *Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		t := pass.TypesInfo.Types[field.Type].Type
		if t == nil {
			continue
		}
		ptr, ok := t.(*types.Pointer)
		if !ok {
			continue
		}
		named, ok := ptr.Elem().(*types.Named)
		if !ok {
			continue
		}
		obj := named.Obj()
		if obj.Name() == "Request" && obj.Pkg() != nil && obj.Pkg().Path() == "net/http" {
			return true
		}
	}
	return false
}

func checkMetricHygiene(pass *Pass, fn *ast.FuncDecl, body *ast.BlockStmt) {
	// Loop body ranges: a registration positioned inside any of these
	// runs per iteration.
	type span struct{ lo, hi token.Pos }
	var loops []span
	// Request-path ranges: the declared function itself, or any func
	// literal, taking an *http.Request.
	var requestPaths []span
	if hasRequestParam(pass, fn.Type) {
		requestPaths = append(requestPaths, span{body.Pos(), body.End()})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			loops = append(loops, span{n.Body.Pos(), n.Body.End()})
		case *ast.RangeStmt:
			loops = append(loops, span{n.Body.Pos(), n.Body.End()})
		case *ast.FuncLit:
			if hasRequestParam(pass, n.Type) {
				requestPaths = append(requestPaths, span{n.Body.Pos(), n.Body.End()})
			}
		}
		return true
	})
	within := func(spans []span, pos token.Pos) bool {
		for _, s := range spans {
			if pos > s.lo && pos < s.hi {
				return true
			}
		}
		return false
	}

	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isRegistrationCall(pass, call) {
			if within(loops, call.Pos()) {
				pass.Reportf(call.Pos(),
					"metric registration inside a loop; register once before the loop and reuse the instrument")
			} else if within(requestPaths, call.Pos()) {
				pass.Reportf(call.Pos(),
					"metric registration on a request path; register at construction and capture the instrument")
			}
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "With" &&
			isObsMethod(pass, sel, "CounterVec") && len(call.Args) == 1 {
			if isUnboundedLabel(pass, call.Args[0]) {
				pass.Reportf(call.Pos(),
					"CounterVec label built from derived string data; label values must come from a bounded set")
			}
		}
		return true
	})
}

// isUnboundedLabel reports whether e derives a label string from data
// (formatting, conversion, concatenation) rather than naming a member
// of a bounded set.
func isUnboundedLabel(pass *Pass, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.BinaryExpr:
		return e.Op == token.ADD
	case *ast.CallExpr:
		sel, ok := e.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return false
		}
		pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
		if !ok {
			return false
		}
		switch pn.Imported().Path() {
		case "fmt", "strconv", "strings":
			return true
		}
	}
	return false
}
