package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/imcstudy/imcstudy/internal/lint/analysis"
)

// NondetFlow forbids nondeterminism in modelled packages, directly or
// through a helper. Modelled code advances on the virtual clock
// (sim.Engine.Now / Proc.Sleep) and draws randomness from explicitly
// seeded sources (rand.New(rand.NewSource(seed))); a wall-clock read,
// the global math/rand source or the process environment makes two runs
// of the same configuration diverge, breaking the byte-identity every
// golden in EXPERIMENTS.md relies on. Test files are exempt (they
// legitimately measure wall time), as are the cmd/ bench harnesses,
// which are outside the modelled scope.
//
// A purely intra-package check is not enough: wrapping time.Now (or an
// order-dependent map walk, or os.Getenv) in a helper that lives in a
// non-modelled package silently launders nondeterminism into modelled
// code: the helper's package is out of scope, and the modelled call
// site just calls an innocent-looking function.
//
// NondetFlow closes that hole with a facts pass. For every function in
// every package the driver sees — modelled or not — it computes whether
// the function (directly, or via any chain of calls, across package
// boundaries) reaches one of the nondeterminism roots:
//
//   - the wall clock (time.Now/Since/Sleep/..., see bannedTime),
//   - the global math/rand source (rand.Intn and friends),
//   - the process environment and host identity (os.Getenv, os.Environ,
//     os.Hostname, os.Getpid, ...),
//   - order-dependent map iteration (same classifier as maprange).
//
// Tainted functions get a NondetFact exported on them; the fact travels
// with the package (through the driver's fact store in standalone mode,
// through the vetx facts file under `go vet -vettool`), so importers see
// it. The reporting pass then flags, inside modelled packages only:
//
//   - direct wall-clock and global-rand calls, and direct os.*
//     environment reads,
//   - time/rand functions referenced as *values* (assigning time.Now to
//     a variable hides the later call from the direct-call check),
//   - any call to (or reference of) a tainted function defined outside
//     modelled scope — the laundering case.
//
// A reasoned //imclint:deterministic waiver at the source kills the
// taint (the helper is "sanitized": its nondeterminism provably never
// reaches modelled state); a waiver at the modelled call site suppresses
// that one finding.
var NondetFlow = &analysis.Analyzer{
	Name:      "nondetflow",
	Doc:       "flags calls from modelled code into functions that transitively reach wall clock, global rand, the environment, or map iteration order",
	Facts:     computeNondetFacts,
	FactTypes: []analysis.Fact{&NondetFact{}},
	Run:       runNondetFlow,
}

// NondetFact marks a function that (directly or via any call chain,
// across packages) reaches a nondeterminism root. Chain is one witness
// path, e.g. "helperutil.Chain → helperutil.WrapNow → time.Now".
type NondetFact struct{ Chain string }

// AFact marks NondetFact as an analysis fact.
func (*NondetFact) AFact() {}

func init() { analysis.RegisterFact(&NondetFact{}) }

// bannedTime are the package-level `time` functions that read or wait
// on the wall clock. Pure constructors/converters (time.Duration,
// time.Unix, time.Date) stay legal.
var bannedTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// allowedRand are the package-level math/rand (and /v2) functions that
// construct explicitly seeded generators; every other package-level
// call uses the shared global source and is banned. Methods on a
// *rand.Rand are always fine — the source was seeded at construction.
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

// envFuncs are the package-level os functions that read the process
// environment or host identity — values that differ between two runs of
// the same configuration on different hosts, shells or CI runners.
var envFuncs = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true, "ExpandEnv": true,
	"Hostname": true, "Getpid": true, "Getppid": true, "Getwd": true,
	"TempDir": true, "UserHomeDir": true, "UserCacheDir": true, "UserConfigDir": true,
}

// intrinsicSource reports whether fn is one of the stdlib
// nondeterminism roots, with a short description for witness chains.
func intrinsicSource(fn *types.Func) (desc string, ok bool) {
	if fn.Pkg() == nil {
		return "", false
	}
	if sig, isSig := fn.Type().(*types.Signature); !isSig || sig.Recv() != nil {
		return "", false // methods (e.g. on a seeded *rand.Rand) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if bannedTime[fn.Name()] {
			return "time." + fn.Name(), true
		}
	case "math/rand", "math/rand/v2":
		if !allowedRand[fn.Name()] {
			return "global rand." + fn.Name(), true
		}
	case "os":
		if envFuncs[fn.Name()] {
			return "os." + fn.Name(), true
		}
	}
	return "", false
}

// chainHopLimit bounds witness chains: beyond this many hops the tail
// is elided, keeping diagnostics readable and facts small.
const chainHopLimit = 6

// composeChain builds "fn → rest", eliding long tails.
func composeChain(fnName, rest string) string {
	if strings.Count(rest, "→") >= chainHopLimit {
		if i := strings.LastIndex(rest, "→"); i >= 0 {
			rest = strings.TrimSpace(rest[:i]) + " → …"
		}
	}
	return fnName + " → " + rest
}

// funcDisplayName renders fn as "pkg.F" or "pkg.(*T).M" for chains and
// diagnostics.
func funcDisplayName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		ptr := ""
		if p, isPtr := rt.(*types.Pointer); isPtr {
			rt = p.Elem()
			ptr = "*"
		}
		if named, isNamed := rt.(*types.Named); isNamed {
			return pkg + "(" + ptr + named.Obj().Name() + ")." + fn.Name()
		}
	}
	return pkg + fn.Name()
}

// nondetNode is one declared function during the facts computation.
type nondetNode struct {
	obj     *types.Func
	chain   string // non-empty once tainted
	callees []*types.Func
}

// computeNondetFacts runs on every package the driver sees (not just
// modelled ones — taint in host tooling is exactly what the reporting
// pass needs to know about). It computes the transitive "reaches a
// nondeterminism root" property for each declared function and exports
// a NondetFact on the tainted ones.
func computeNondetFacts(pass *analysis.Pass) error {
	w := collectWaivers(pass.Fset, pass.Files)
	var nodes []*nondetNode
	chainOf := make(map[*types.Func]*nondetNode)

	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[decl.Name].(*types.Func)
			if !ok {
				continue
			}
			node := &nondetNode{obj: obj}
			self := funcDisplayName(obj)

			// Direct roots and call edges, in source order so the first
			// witness chain is deterministic. Function literals inside the
			// declaration are attributed to it: when the function runs,
			// the closure's effects are (conservatively) its effects.
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				if desc, isRoot := intrinsicSource(fn); isRoot {
					if waived(pass, w, id.Pos()) {
						return true // sanitized at the source
					}
					if node.chain == "" {
						node.chain = composeChain(self, desc)
					}
					return true
				}
				if fn.Pkg() == pass.Pkg {
					node.callees = append(node.callees, fn)
					return true
				}
				var fact NondetFact
				if pass.ImportObjectFact(fn, &fact) {
					if waived(pass, w, id.Pos()) {
						return true
					}
					if node.chain == "" {
						node.chain = composeChain(self, fact.Chain)
					}
				}
				return true
			})

			// Order-dependent map iteration is a root too (maprange only
			// checks output scope; here every package counts).
			eachFuncBody(decl, func(body *ast.BlockStmt) {
				for _, p := range mapRangeProblemsIn(pass, body) {
					if waived(pass, w, p.pos) {
						continue
					}
					if node.chain == "" {
						node.chain = composeChain(self, "map iteration order")
					}
				}
			})

			nodes = append(nodes, node)
			chainOf[obj] = node
		}
	}

	// Propagate taint over same-package call edges to a fixed point.
	// Iteration is over the source-ordered slice, so the first chain a
	// function acquires is the same on every run.
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			if n.chain != "" {
				continue
			}
			for _, callee := range n.callees {
				if cn := chainOf[callee]; cn != nil && cn.chain != "" {
					n.chain = composeChain(funcDisplayName(n.obj), cn.chain)
					changed = true
					break
				}
			}
		}
	}

	for _, n := range nodes {
		if n.chain != "" {
			if err := pass.ExportObjectFact(n.obj, &NondetFact{Chain: n.chain}); err != nil {
				return err
			}
		}
	}
	return nil
}

// runNondetFlow reports, in modelled scope, direct uses of the
// nondeterminism roots and taint entering from outside.
func runNondetFlow(pass *analysis.Pass) error {
	if !inModelledScope(pass.Pkg.Path()) {
		return nil
	}
	w := collectWaivers(pass.Fset, pass.Files)
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		// Idents in call position: a direct call and a value reference
		// get different messages.
		callFun := make(map[*ast.Ident]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				callFun[fun] = true
			case *ast.SelectorExpr:
				callFun[fun.Sel] = true
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg() == pass.Pkg {
				return true
			}
			isCall := callFun[id]
			if desc, isRoot := intrinsicSource(fn); isRoot {
				if !waived(pass, w, id.Pos()) {
					pass.Reportf(id.Pos(), "%s", rootMessage(fn.Pkg().Path(), desc, isCall))
				}
				return true
			}
			if inModelledScope(fn.Pkg().Path()) {
				return true // the source is flagged in its own package
			}
			var fact NondetFact
			if pass.ImportObjectFact(fn, &fact) && !waived(pass, w, id.Pos()) {
				verb := "call into"
				if !isCall {
					verb = "reference to"
				}
				pass.Reportf(id.Pos(), "%s nondeterministic %s (%s): the helper launders nondeterminism into modelled code; make it deterministic, waive at its source, or waive this use with //imclint:deterministic -- reason", verb, funcDisplayName(fn), fact.Chain)
			}
			return true
		})
	}
	return nil
}

// rootMessage is the finding for a direct use of an intrinsic root in
// modelled code.
func rootMessage(pkgPath, desc string, isCall bool) string {
	switch {
	case pkgPath == "os":
		return desc + " reads the process environment in modelled code: runs stop being a pure function of (config, seed); thread the value through the configuration or waive with //imclint:deterministic -- reason"
	case !isCall:
		return desc + " referenced as a value in modelled code: calling it later hides the call from the direct-call check; use the virtual clock or a seeded source, or waive with //imclint:deterministic -- reason"
	case pkgPath == "time":
		return "wall-clock call " + desc + " in modelled package; use the virtual clock (sim.Engine.Now, Proc.Sleep) or waive with //imclint:deterministic -- reason"
	default:
		return desc + " in modelled package; draw from a seeded rand.New(rand.NewSource(seed)) or waive with //imclint:deterministic -- reason"
	}
}
