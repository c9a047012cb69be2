package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// TraceKind enforces the trace vocabulary contract. Downstream tooling
// (cmd/farmtrace, golden-transcript tests, the causality checker) matches
// on trace.Kind values, so the set of kinds must be closed and collision-
// free:
//
//   - every Kind constant is declared in internal/trace, and no two
//     declared kinds share a string value;
//   - code outside internal/trace never materializes a Kind from an
//     inline string — neither by implicit conversion (Kind: "lse") nor by
//     explicit conversion (trace.Kind("lse")) — it must name a declared
//     constant, so adding an event kind forces a declaration the
//     transcript tests can see.
var TraceKind = kindVocab.analyzer("tracekind",
	"trace.Kind values are unique constants declared in internal/trace; no inline kind strings elsewhere")

// MetricName enforces the metric vocabulary contract, the static twin of
// obs.checkName's registration-time panic. Exposition consumers
// (farmstat, Prometheus scrapes, the campaign merge) key on obs.Name
// values, so the catalogue must be closed, collision-free, and uniformly
// snake_case:
//
//   - every Name constant is declared in internal/obs, matches [a-z_]+,
//     and no two declared names share a string value;
//   - code outside internal/obs never materializes a Name from an inline
//     string — neither by implicit conversion (r.Counter("oops")) nor by
//     explicit conversion (obs.Name("oops")) — it must name a declared
//     constant, so adding a metric forces a catalogue entry the
//     exposition tooling can see.
var MetricName = metricVocab.analyzer("metricname",
	"obs.Name values are unique [a-z_]+ constants declared in internal/obs; no inline metric names elsewhere")

// vocab is a closed string vocabulary: a named string type whose values
// are unique constants declared only in one package, and which no other
// package materializes from a string. The package is matched by its
// path's base name, so fixture stand-ins named like it qualify.
type vocab struct {
	pkg, typ string
	// valid, when non-nil, is an extra form check on declared values,
	// reported with badForm.
	valid   func(string) bool
	badForm string
	// Diagnostics: a declared value colliding with an earlier one, an
	// inline string literal adopting the type, an explicit conversion to
	// the type, and a constant of the type declared elsewhere.
	collides, inline, conversion, outside string
}

var kindVocab = &vocab{
	pkg: "trace", typ: "Kind",
	collides:   "kind %q collides with %s: declared kinds must be unique strings",
	inline:     "inline trace kind %s: use a constant declared in internal/trace so transcript tooling sees a closed vocabulary",
	conversion: "conversion to trace.Kind outside internal/trace: emit a declared constant instead",
	outside:    "trace.Kind constant %s declared outside internal/trace: add it to the declared vocabulary instead",
}

var metricVocab = &vocab{
	pkg: "obs", typ: "Name",
	valid:      validMetricName,
	badForm:    "metric name %q is not snake_case [a-z_]+",
	collides:   "metric name %q collides with %s: declared names must be unique strings",
	inline:     "inline metric name %s: use a constant declared in internal/obs so the exposition catalogue stays closed",
	conversion: "conversion to obs.Name outside internal/obs: use a declared catalogue constant instead",
	outside:    "obs.Name constant %s declared outside internal/obs: add it to the catalogue instead",
}

// validMetricName reports whether s is non-empty snake_case [a-z_]+,
// mirroring obs.checkName.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '_' && (c < 'a' || c > 'z') {
			return false
		}
	}
	return true
}

// analyzer builds the vocabulary's analyzer: the declaring package gets
// the declaration checks, every other package the use checks.
func (v *vocab) analyzer(name, doc string) *Analyzer {
	return &Analyzer{Name: name, Doc: doc, Run: func(pass *Pass) error {
		if pkgPathBase(pass.Pkg.Path()) == v.pkg {
			v.checkDecls(pass)
		} else {
			v.checkUses(pass)
		}
		return nil
	}}
}

// isType reports whether t is the vocabulary's type.
func (v *vocab) isType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == v.typ && obj.Pkg() != nil && pkgPathBase(obj.Pkg().Path()) == v.pkg
}

// isKindType reports whether t is the trace package's Kind type.
func isKindType(t types.Type) bool { return kindVocab.isType(t) }

// checkDecls checks the declaration site: constants of the type must be
// well-formed and collision-free.
func (v *vocab) checkDecls(pass *Pass) {
	seen := make(map[string]string) // string value -> first constant name
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					obj, ok := pass.TypesInfo.Defs[name].(*types.Const)
					if !ok || !v.isType(obj.Type()) {
						continue
					}
					if obj.Val().Kind() != constant.String {
						continue
					}
					val := constant.StringVal(obj.Val())
					if v.valid != nil && !v.valid(val) {
						pass.Reportf(name.Pos(), v.badForm, val)
					}
					if first, dup := seen[val]; dup {
						pass.Reportf(name.Pos(), v.collides, val, first)
						continue
					}
					seen[val] = name.Name
				}
			}
		}
	}
}

// checkUses checks every other package: no inline strings of the type,
// and no constants of the type declared outside its package.
func (v *vocab) checkUses(pass *Pass) {
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BasicLit:
				if n.Kind != token.STRING {
					return true
				}
				// An untyped string literal adopting the type is an
				// implicit conversion: Event{Kind: "lse"},
				// r.Counter("oops"), k == "lse", etc.
				if tv, ok := pass.TypesInfo.Types[n]; ok && v.isType(tv.Type) {
					pass.Reportf(n.Pos(), v.inline, n.Value)
				}
			case *ast.CallExpr:
				// Explicit conversion, e.g. trace.Kind(x).
				if tv, ok := pass.TypesInfo.Types[n.Fun]; ok && tv.IsType() && v.isType(tv.Type) {
					pass.Reportf(n.Pos(), "%s", v.conversion)
					return false // don't double-report a literal argument
				}
			case *ast.ValueSpec:
				for _, name := range n.Names {
					if obj, ok := pass.TypesInfo.Defs[name].(*types.Const); ok && v.isType(obj.Type()) {
						pass.Reportf(name.Pos(), v.outside, name.Name)
					}
				}
			}
			return true
		})
	}
}
