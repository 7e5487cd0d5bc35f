// Package hotalloc flags allocation patterns on per-record paths. At
// paper scale a cell pushes 10^6+ records through every operator, so
// one avoidable allocation per record is a million allocations per
// run, GC pressure that skews exactly the sustained-rate measurements
// the benchmark exists to take, and the difference between the
// metrics sketch's ~100ns/0-alloc insert and a hot path that spends
// its budget in the allocator. The analyzer walks the same-package
// call graph from the known per-record entry points — engine operator
// Process/emit paths, graphx fused fns, coder round-trips, and the
// metrics record hooks — and flags, on any function it reaches:
//
//  1. []byte<->string conversions (each allocates and copies; the
//     compiler-optimized forms — map indexing and == comparison — are
//     exempt)
//  2. fmt.Sprint/Sprintf/Sprintln (reflection-driven formatting per
//     record; trivial cases carry a suggested fix)
//  3. unsized growth in per-record loops: make(map) without a size
//     hint or make([]T, 0) without capacity inside a loop, and append
//     to a slice declared without capacity outside the loop
//  4. closures that capture enclosing variables and escape (each
//     record allocates a fresh closure object)
//
// Entry points are recognized two ways: by name — methods and
// functions called Process, ProcessElement, Invoke, Encode, Decode,
// Mark, MarkAt, or Insert — and by shape: any function literal taking
// a []byte parameter (the runtimes' ProcessFunc/emit contract). The
// walk stays within the package (cross-package callees are the
// callee package's findings) and is bounded at depth 6.
//
// Findings are an inventory, not always a bug: a defensive copy a
// coder's ownership contract requires is annotated
// //beamvet:allow hotalloc <reason> — the reason records why the
// allocation is the product, and the ROADMAP's zero-alloc arc burns
// down whatever is left.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"beambench/internal/analysis"
)

// Scope covers the code records flow through: the three engine
// runtimes, the native query executors they deploy (internal/queries),
// the beam SDK (coders, graphx, runners), the metrics hot hooks, and
// the obs layer (its gauge setters and snapshot readers sit next to
// per-record marking; scrape-path allocations must be deliberate and
// annotated).
var Scope = []string{
	"internal/flink",
	"internal/spark",
	"internal/apex",
	"internal/queries",
	"internal/beam",
	"internal/metrics",
	"internal/obs",
	"/testdata/",
}

var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "flag allocation patterns (conversions, fmt.Sprint*, unsized growth, escaping closures) on per-record paths",
	Run:  run,
}

// rootNames are the per-record entry points by method/function name.
var rootNames = map[string]bool{
	"Process":        true, // engine operators, GBKState
	"ProcessElement": true, // beam DoFns, graphx FusedFn
	"Invoke":         true, // flink sink functions
	"Encode":         true, // coder round-trip
	"Decode":         true,
	"Mark":           true, // metrics record hooks
	"MarkAt":         true,
	"Insert":         true, // sketch insert
}

// maxDepth bounds the same-package call-graph walk from entry points.
const maxDepth = 6

func run(pass *analysis.Pass) error {
	if !analysis.PathInScope(pass.Path, Scope) {
		return nil
	}

	decls := declIndex(pass)

	// Seed the hot set: named entry points and per-record-shaped
	// function literals anywhere in the package.
	type hotFn struct {
		body *ast.BlockStmt
		via  string
		dep  int
	}
	var work []hotFn
	seen := make(map[*ast.BlockStmt]bool)
	add := func(body *ast.BlockStmt, via string, dep int) {
		if body != nil && !seen[body] {
			seen[body] = true
			work = append(work, hotFn{body: body, via: via, dep: dep})
		}
	}
	for fn, decl := range decls {
		if rootNames[fn.Name()] {
			add(decl.Body, fn.Name(), 0)
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok && perRecordShape(pass, lit) {
				add(lit.Body, "per-record func", 0)
			}
			return true
		})
	}

	// Close over same-package callees breadth-first.
	for i := 0; i < len(work); i++ {
		h := work[i]
		if h.dep >= maxDepth {
			continue
		}
		ast.Inspect(h.body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := calledFunc(pass, call); fn != nil {
				if decl, ok := decls[fn]; ok {
					add(decl.Body, h.via, h.dep+1)
				}
			}
			return true
		})
	}

	// Scan every hot body. Bodies can nest (a root literal inside a
	// hot method): dedup diagnostics by position so a site reports
	// once.
	reported := make(map[token.Pos]bool)
	reportf := func(pos token.Pos, format string, args ...any) {
		if !reported[pos] {
			reported[pos] = true
			pass.Reportf(pos, format, args...)
		}
	}
	report := func(d analysis.Diagnostic) {
		if !reported[d.Pos] {
			reported[d.Pos] = true
			pass.Report(d)
		}
	}
	for _, h := range work {
		scanHot(pass, h.body, h.via, reportf, report)
	}
	return nil
}

// declIndex maps the package's function and method objects to their
// declarations.
func declIndex(pass *analysis.Pass) map[*types.Func]*ast.FuncDecl {
	m := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					m[fn] = fd
				}
			}
		}
	}
	return m
}

func calledFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg() != pass.Pkg {
		return nil
	}
	return fn
}

// perRecordShape reports whether a function literal looks like a
// per-record callback: at least one parameter of type []byte.
func perRecordShape(pass *analysis.Pass, lit *ast.FuncLit) bool {
	sig, ok := pass.TypesInfo.TypeOf(lit).(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isByteSlice(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// scanHot runs the four checks over one hot body, tracking parents
// (for the compiler-optimized conversion exemptions) and loop depth.
func scanHot(pass *analysis.Pass, body *ast.BlockStmt, via string, reportf func(token.Pos, string, ...any), report func(analysis.Diagnostic)) {
	var parents []ast.Node
	loopDepth := 0
	var loops []*loopInfo

	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if n == nil {
			top := parents[len(parents)-1]
			parents = parents[:len(parents)-1]
			switch top.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				loopDepth--
				loops = loops[:len(loops)-1]
			}
			return true
		}
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loopDepth++
			loops = append(loops, &loopInfo{stmt: n})
		case *ast.CallExpr:
			checkConversion(pass, n, parents, via, reportf)
			checkSprint(pass, n, via, report)
			if loopDepth > 0 {
				checkUnsizedMake(pass, n, via, reportf)
			}
		case *ast.AssignStmt:
			if loopDepth > 0 {
				checkAppendGrowth(pass, body, n, loops[len(loops)-1], via, reportf)
			}
		case *ast.FuncLit:
			checkClosure(pass, n, parents, via, reportf)
		}
		parents = append(parents, n)
		return true
	}
	ast.Inspect(body, visit)
}

type loopInfo struct{ stmt ast.Node }

// checkConversion flags []byte<->string conversions, exempting the
// forms the compiler optimizes to zero-alloc: map indexing
// (m[string(b)]) and string comparison (string(a) == string(b)).
func checkConversion(pass *analysis.Pass, call *ast.CallExpr, parents []ast.Node, via string, reportf func(token.Pos, string, ...any)) {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return
	}
	argT := pass.TypesInfo.TypeOf(call.Args[0])
	if argT == nil {
		return
	}
	if av, ok := pass.TypesInfo.Types[call.Args[0]]; ok && av.Value != nil {
		return // constant conversion, folded at compile time
	}
	target := tv.Type
	var kind string
	switch {
	case isString(target) && isByteSlice(argT):
		kind = "[]byte->string"
	case isByteSlice(target) && isString(argT):
		kind = "string->[]byte"
	default:
		return
	}
	// Walk out of parenthesis parents to the operational parent.
	var parent ast.Node
	for i := len(parents) - 1; i >= 0; i-- {
		if _, ok := parents[i].(*ast.ParenExpr); ok {
			continue
		}
		parent = parents[i]
		break
	}
	switch p := parent.(type) {
	case *ast.IndexExpr:
		if p.Index == call {
			return // m[string(b)] does not allocate
		}
	case *ast.BinaryExpr:
		if p.Op == token.EQL || p.Op == token.NEQ || p.Op == token.LSS ||
			p.Op == token.LEQ || p.Op == token.GTR || p.Op == token.GEQ {
			return // string(a) == s does not allocate
		}
	case *ast.RangeStmt:
		if p.X == call {
			return // range string(b) does not allocate
		}
	}
	reportf(call.Pos(), "%s conversion allocates and copies on a per-record path (via %s): keep one representation across the hop or reuse a scratch buffer", kind, via)
}

// checkSprint flags fmt.Sprint* on hot paths and attaches mechanical
// fixes for the degenerate forms.
func checkSprint(pass *analysis.Pass, call *ast.CallExpr, via string, report func(analysis.Diagnostic)) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return
	}
	switch fn.Name() {
	case "Sprint", "Sprintf", "Sprintln":
	default:
		return
	}
	d := analysis.Diagnostic{
		Pos: call.Pos(),
		Message: "fmt." + fn.Name() + " formats through reflection on a per-record path (via " + via +
			"): use strconv, manual concatenation, or a pooled buffer",
	}
	if fix, ok := sprintFix(pass, call, fn.Name()); ok {
		d.SuggestedFixes = []analysis.SuggestedFix{fix}
	}
	report(d)
}

// sprintFix builds the mechanical repairs: fmt.Sprintf("literal") ->
// "literal" (no verbs, no operands), and fmt.Sprint(x) /
// fmt.Sprintf("%s", x) for a string-typed x -> x.
func sprintFix(pass *analysis.Pass, call *ast.CallExpr, name string) (analysis.SuggestedFix, bool) {
	replaceWith := func(msg, src string) (analysis.SuggestedFix, bool) {
		return analysis.SuggestedFix{
			Message:   msg,
			TextEdits: []analysis.TextEdit{{Pos: call.Pos(), End: call.End(), NewText: []byte(src)}},
		}, true
	}
	switch name {
	case "Sprint":
		if len(call.Args) == 1 && isString(pass.TypesInfo.TypeOf(call.Args[0])) {
			if src, ok := exprSource(call.Args[0]); ok {
				return replaceWith("the operand is already a string; drop the fmt call", src)
			}
		}
	case "Sprintf":
		if len(call.Args) == 0 {
			return analysis.SuggestedFix{}, false
		}
		lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return analysis.SuggestedFix{}, false
		}
		if len(call.Args) == 1 && !containsVerb(lit.Value) {
			return replaceWith("the format has no verbs; use the literal", lit.Value)
		}
		if len(call.Args) == 2 && isPlainStringVerb(lit.Value) && isString(pass.TypesInfo.TypeOf(call.Args[1])) {
			if src, ok := exprSource(call.Args[1]); ok {
				return replaceWith("%s of a string is the string; drop the fmt call", src)
			}
		}
	}
	return analysis.SuggestedFix{}, false
}

// exprSource renders simple expressions (identifiers, selector
// chains, calls thereof) back to source. Anything more complex
// declines a fix rather than risking a mangled rewrite.
func exprSource(e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name, true
	case *ast.SelectorExpr:
		if x, ok := exprSource(e.X); ok {
			return x + "." + e.Sel.Name, true
		}
	case *ast.CallExpr:
		if len(e.Args) == 0 {
			if x, ok := exprSource(e.Fun); ok {
				return x + "()", true
			}
		}
	}
	return "", false
}

// containsVerb reports whether a quoted format literal consumes any
// operand (a % not followed by another %).
func containsVerb(quoted string) bool {
	for i := 0; i < len(quoted); i++ {
		if quoted[i] != '%' {
			continue
		}
		if i+1 < len(quoted) && quoted[i+1] == '%' {
			i++
			continue
		}
		return true
	}
	return false
}

// isPlainStringVerb reports whether the quoted literal is exactly "%s".
func isPlainStringVerb(quoted string) bool {
	return quoted == `"%s"` || quoted == "`%s`"
}

// checkUnsizedMake flags make(map[...]...)  without a size hint and
// make([]T, 0) without capacity inside a per-record loop.
func checkUnsizedMake(pass *analysis.Pass, call *ast.CallExpr, via string, reportf func(token.Pos, string, ...any)) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" {
		return
	}
	if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok {
		return
	}
	if len(call.Args) == 0 {
		return
	}
	t := pass.TypesInfo.TypeOf(call.Args[0])
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Map:
		if len(call.Args) == 1 {
			reportf(call.Pos(), "make(map) without a size hint inside a per-record loop (via %s): every growth rehashes; size it or hoist it out of the loop", via)
		}
	case *types.Slice:
		if len(call.Args) == 2 && isZeroLit(pass, call.Args[1]) {
			reportf(call.Pos(), "make(slice, 0) without capacity inside a per-record loop (via %s): append growth reallocates; provide a capacity", via)
		}
	}
}

func isZeroLit(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	return tv.Value.String() == "0"
}

// checkAppendGrowth flags x = append(x, ...) inside a loop when x is a
// local of the enclosing hot function declared without capacity — the
// classic quadratic-ish regrowth on a per-record path.
func checkAppendGrowth(pass *analysis.Pass, fnBody *ast.BlockStmt, as *ast.AssignStmt, loop *loopInfo, via string, reportf func(token.Pos, string, ...any)) {
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || i >= len(as.Lhs) {
			continue
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "append" {
			continue
		}
		if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok {
			continue
		}
		lhs, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
		if !ok {
			continue
		}
		obj := pass.TypesInfo.ObjectOf(lhs)
		if obj == nil || obj.Parent() == pass.Pkg.Scope() {
			continue
		}
		// Only locals declared in this function, before the loop;
		// params and fields have unknown capacity discipline.
		if obj.Pos() < fnBody.Pos() || obj.Pos() > fnBody.End() || obj.Pos() >= loop.stmt.Pos() {
			continue
		}
		if declaredWithCapacity(pass, fnBody, obj) {
			continue
		}
		reportf(call.Pos(), "append grows %s inside a per-record loop (via %s) and %s was declared without capacity: preallocate with make(_, 0, n)", lhs.Name, via, lhs.Name)
	}
}

// declaredWithCapacity reports whether the local's initializer manages
// its own capacity: a three-argument make, or a reslice (buf[:0]) —
// the scratch-buffer-reuse idiom, where growth amortizes to zero
// across records.
func declaredWithCapacity(pass *analysis.Pass, fnBody *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || pass.TypesInfo.ObjectOf(id) != obj || i >= len(as.Rhs) {
				continue
			}
			switch rhs := ast.Unparen(as.Rhs[i]).(type) {
			case *ast.CallExpr:
				mk, ok := ast.Unparen(rhs.Fun).(*ast.Ident)
				if ok && mk.Name == "make" && len(rhs.Args) == 3 {
					found = true
				}
			case *ast.SliceExpr:
				found = true
			}
			return true
		}
		return true
	})
	return found
}

// checkClosure flags function literals that capture enclosing
// variables and escape: each record then allocates a closure object.
// Immediately-invoked literals and go/defer targets are exempt (the
// former typically inline; the latter are flagged by ctxleak where it
// matters).
func checkClosure(pass *analysis.Pass, lit *ast.FuncLit, parents []ast.Node, via string, reportf func(token.Pos, string, ...any)) {
	if len(parents) > 0 {
		switch p := parents[len(parents)-1].(type) {
		case *ast.CallExpr:
			if ast.Unparen(p.Fun) == lit {
				return // immediately invoked
			}
		case *ast.GoStmt, *ast.DeferStmt:
			return
		}
	}
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// A capture is a function-scoped variable declared outside the
		// literal.
		if v.Parent() == pass.Pkg.Scope() || v.Pkg() != pass.Pkg {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true
		}
		captured = v.Name()
		return false
	})
	if captured != "" {
		reportf(lit.Pos(), "closure captures %s on a per-record path (via %s): each record allocates the closure; hoist it or pass the state as a parameter", captured, via)
	}
}
