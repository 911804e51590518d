package vet

import (
	"go/ast"
	"go/types"
	"strconv"
)

// Nondeterminism flags run-to-run nondeterminism sources in the
// simulator and experiment packages, whose outputs are byte-compared
// against golden files in CI:
//
//   - time.Now / time.Since calls (wall-clock leaking into results);
//   - math/rand imports (all randomness must come from fixed workload
//     seeds threaded through explicit state);
//   - map iteration feeding an order-sensitive sink (append to an outer
//     slice, fmt output, a channel send, or a call through a function
//     value) — map order changes run to run, so such loops must iterate
//     sorted keys instead.
var Nondeterminism = &Analyzer{
	Name: "nondeterminism",
	Doc:  "flag wall-clock reads, math/rand and order-sensitive map iteration in deterministic packages",
	Packages: []string{
		"dmp/internal/core",
		"dmp/internal/emu",
		"dmp/internal/exp",
		// The probe sinks write artifacts that must be a function of the
		// simulated run alone; host time reaches them only through the
		// telemetry writers they feed.
		"dmp/internal/obs",
		"dmp/internal/sample",
		// The scheduler's cache keys and the persistent store's digests
		// must be reproducible across processes: a wall-clock or
		// map-order dependency there poisons stored results, not just one
		// run's output.
		"dmp/internal/sched",
		"dmp/internal/store",
	},
	Run: runNondeterminism,
}

func runNondeterminism(pass *Pass) {
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil &&
				(path == "math/rand" || path == "math/rand/v2") {
				pass.Reportf(imp.Pos(),
					"import of %s in a deterministic package; derive randomness from workload seeds", path)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if fn := calleeFunc(pass.Info, x); fn != nil &&
					fn.Pkg() != nil && fn.Pkg().Path() == "time" &&
					(fn.Name() == "Now" || fn.Name() == "Since") {
					pass.Reportf(x.Pos(),
						"time.%s in a deterministic package: wall-clock reads are not reproducible", fn.Name())
				}
			case *ast.RangeStmt:
				if t := pass.Info.Types[x.X].Type; t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						if sink := findOrderSink(pass, x.Body); sink != "" {
							pass.Reportf(x.For,
								"map iteration order feeds %s; iterate sorted keys for deterministic output", sink)
						}
					}
				}
			}
			return true
		})
	}
}

// calleeFunc resolves a call's static callee, or nil for dynamic calls,
// builtins and conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch f := unparen(call.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, _ := identObj(info, id).(*types.Func)
	return fn
}

// findOrderSink scans a map-range body for the first construct whose
// observable effect depends on iteration order. Commutative updates
// (counters, map/set inserts, min/max folds) pass through silently.
func findOrderSink(pass *Pass, body *ast.BlockStmt) string {
	sink := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch x := n.(type) {
		case *ast.SendStmt:
			sink = "a channel send"
			return false
		case *ast.CallExpr:
			if tv, ok := pass.Info.Types[x.Fun]; ok && tv.IsType() {
				return true // conversion
			}
			switch f := unparen(x.Fun).(type) {
			case *ast.Ident:
				switch obj := identObj(pass.Info, f).(type) {
				case *types.Builtin:
					if f.Name == "append" {
						sink = "an append"
						return false
					}
				case *types.Func:
					// Static package-level call: assumed commutative.
				default:
					_ = obj
					if isFuncValue(pass.Info, x.Fun) {
						sink = "a call through a function value"
						return false
					}
				}
			case *ast.SelectorExpr:
				if fn, ok := identObj(pass.Info, f.Sel).(*types.Func); ok {
					if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
						sink = "fmt output"
						return false
					}
					// Other static method/function calls: assumed commutative.
				} else if isFuncValue(pass.Info, x.Fun) {
					sink = "a call through a function value"
					return false
				}
			default:
				if isFuncValue(pass.Info, x.Fun) {
					sink = "a call through a function value"
					return false
				}
			}
		}
		return true
	})
	return sink
}

// isFuncValue reports whether e is a non-constant expression of function
// type — a dynamic call target.
func isFuncValue(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil || tv.IsType() {
		return false
	}
	_, isSig := tv.Type.Underlying().(*types.Signature)
	return isSig
}
