// Package budgetedgo forbids unbudgeted goroutine spawns in the
// serving packages.
//
// Invariant (DESIGN.md §13): the serving scheduler owns parallelism.
// PR 8 removed the per-request worker explosion by making every
// fan-out draw workers from a sched.Budget token semaphore; a bare
// `go func` on a request path reintroduces oversubscription that the
// QPS harness then has to rediscover the hard way. A goroutine spawn
// is compliant when the spawning function visibly draws from a budget
// (a TryAcquire call in the same function — TryAcquire → go → Release).
// In the repository that function is sched.Drain, the single budgeted
// spawn site: plan partitions and the corpus scatter hand it their
// work instead of spawning helpers themselves. Long-lived singletons
// created at construction time (cache fill loops, slowlog writers) are
// not request-proportional and carry //pimento:allow budgetedgo with
// that argument.
package budgetedgo

import (
	"go/ast"

	"repro/tools/analyze/analysis"
	"repro/tools/analyze/passes/internal/scope"
)

// scopePkgs: the serving substrate minus the operator layer —
// internal/algebra and internal/twig are synchronous by design (the
// scheduler parallelizes *across* plans, never inside one).
var scopePkgs = []string{
	"internal/corpus",
	"internal/engine",
	"internal/lru",
	"internal/plan",
	"internal/server",
	"internal/registry",
	"internal/sched",
}

// Analyzer flags `go` statements not visibly paired with a budget draw.
var Analyzer = &analysis.Analyzer{
	Name: "budgetedgo",
	Doc: "goroutine spawns in serving packages must draw from a sched.Budget (TryAcquire in the " +
		"spawning function); unbudgeted spawns oversubscribe the scheduler — annotate " +
		"construction-time singletons with //pimento:allow budgetedgo <reason>",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !scope.PathAny(pass.Pkg.Path(), scopePkgs) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			budgeted := drawsBudget(fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if !budgeted {
					pass.Reportf(g.Pos(),
						"unbudgeted goroutine spawn in %s: draw a worker from the sched.Budget "+
							"(TryAcquire/Release) so the serving scheduler keeps ownership of "+
							"parallelism, or annotate a construction-time singleton",
						fd.Name.Name)
				}
				return true
			})
		}
	}
	return nil
}

// drawsBudget reports whether the body contains an X.TryAcquire(...)
// call. Matching is syntactic on the selector name: budgets flow
// through both the concrete *sched.Budget and the plan.WorkerBudget
// interface, and either spelling proves the function participates in
// the token protocol.
func drawsBudget(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "TryAcquire" {
			found = true
			return false
		}
		return true
	})
	return found
}
