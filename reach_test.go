package atlas

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// Reasons an exported identifier under internal/ may stay unreached.
const (
	reachOracle   = "oracle: tests check production code against it"
	reachTestOnly = "test support: an accessor, fixture writer or fault control only tests use"
	reachBaseline = "paper baseline run only by its tests; leaves with internal/exp"
)

// reachAllowlist names exported identifiers under internal/ that no
// root reaches on purpose, with the reason. An entry that becomes
// reachable, or stops existing, fails the test too.
var reachAllowlist = map[string]string{
	"internal/baseline.DefaultCliqueOptions":      reachBaseline,
	"internal/baseline.KMeans":                    reachBaseline,
	"internal/baseline.KMeansResult":              reachBaseline,
	"internal/bitvec.Vector.AndNot":               reachOracle,
	"internal/bitvec.Vector.Clear":                reachOracle,
	"internal/bitvec.Vector.Equal":                reachOracle,
	"internal/bitvec.Vector.Not":                  reachOracle,
	"internal/bitvec.Vector.Or":                   reachOracle,
	"internal/bitvec.Vector.Rank":                 reachOracle,
	"internal/bitvec.Vector.Xor":                  reachOracle,
	"internal/colstore.Write":                     reachTestOnly,
	"internal/core.Cartographer.Table":            reachTestOnly,
	"internal/engine.PartitionBits":               reachOracle,
	"internal/obsv.Registry.NumMetrics":           reachTestOnly,
	"internal/obsv.Trace.ID":                      reachTestOnly,
	"internal/query.Predicate.Empty":              reachTestOnly,
	"internal/query.Predicate.Equal":              reachOracle,
	"internal/query.Query.Empty":                  reachTestOnly,
	"internal/query.Query.Equal":                  reachOracle,
	"internal/query.Query.NumPreds":               reachTestOnly,
	"internal/remote/chaos.Corrupt":               reachTestOnly,
	"internal/remote/chaos.Delay":                 reachTestOnly,
	"internal/remote/chaos.Error5xx":              reachTestOnly,
	"internal/remote/chaos.Fault":                 reachTestOnly,
	"internal/remote/chaos.Injector":              reachTestOnly,
	"internal/remote/chaos.Injector.Heal":         reachTestOnly,
	"internal/remote/chaos.Injector.Injected":     reachTestOnly,
	"internal/remote/chaos.Injector.KillAfter":    reachTestOnly,
	"internal/remote/chaos.Injector.Match":        reachTestOnly,
	"internal/remote/chaos.Injector.Requests":     reachTestOnly,
	"internal/remote/chaos.Injector.ServeHTTP":    reachTestOnly,
	"internal/remote/chaos.Injector.SetDelay":     reachTestOnly,
	"internal/remote/chaos.Injector.SetFault":     reachTestOnly,
	"internal/remote/chaos.Kill":                  reachTestOnly,
	"internal/remote/chaos.None":                  reachTestOnly,
	"internal/remote/chaos.Truncate":              reachTestOnly,
	"internal/remote/chaos.Wrap":                  reachTestOnly,
	"internal/remote/chaos.recording.Header":      reachTestOnly,
	"internal/remote/chaos.recording.Write":       reachTestOnly,
	"internal/remote/chaos.recording.WriteHeader": reachTestOnly,
	"internal/server.Server.WorkloadSnapshot":     reachTestOnly,
	"internal/session.Session.Node":               reachTestOnly,
	"internal/stats.Contingency.Total":            reachTestOnly,
	"internal/stats.Histogram.Total":              reachTestOnly,
	"internal/stats.Median":                       reachOracle,
	"internal/stats.Quantile":                     reachOracle,
	"internal/stats.QuantileSorted":               reachOracle,
	"internal/storage.Builder.NumRows":            reachTestOnly,
	"internal/storage.LazyColumn.CodeOf":          reachTestOnly,
}

// TestInternalAPIReachable fails on any exported identifier under
// internal/ — package-level name or method — that no root reaches. The
// roots are the facade's exported API (the root package), every program
// (package main under cmd/ and examples/) and the benchmark (bench/*.go,
// read only). Reachability follows every reference in a reached
// declaration; a method also counts as reached when its type is and its
// name is a method of some interface (dynamic dispatch), and one
// constant of a group reaches the group. Packages are parsed and
// type-checked from source with the standard library alone.
func TestInternalAPIReachable(t *testing.T) {
	l := &moduleLoader{fset: token.NewFileSet(), std: importer.Default(), pkgs: map[string]*loadedPkg{}}
	var dirs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == "bench") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*loadedPkg
	for _, dir := range dirs {
		path := "repro"
		if dir != "." {
			path += "/" + filepath.ToSlash(dir)
		}
		lp, err := l.load(path, dir, false)
		if err != nil {
			t.Fatal(err)
		}
		if lp != nil {
			pkgs = append(pkgs, lp)
		}
	}
	bench, err := l.load("repro/bench", "bench", true)
	if err != nil {
		t.Fatal(err)
	}
	pkgs = append(pkgs, bench)

	g := newReachGraph(pkgs, l.stdPkgs)
	for obj := range g.decl {
		if p := obj.Pkg(); p.Name() == "main" || (p.Path() == "repro" && obj.Exported()) {
			g.reach(obj)
		}
	}
	// Package initialization runs whenever the package is linked.
	for _, site := range g.inits {
		g.visit(site.node, site.info)
	}
	g.run()

	var missed []string
	for obj := range g.decl {
		if !strings.HasPrefix(obj.Pkg().Path(), "repro/internal/") || !obj.Exported() || g.reached[obj] {
			continue
		}
		if name := qualifiedName(obj); reachAllowlist[name] == "" {
			missed = append(missed, name)
		}
	}
	sort.Strings(missed)
	for _, name := range missed {
		t.Errorf("%s: exported but reached by no program, the facade or bench/; delete it, or allowlist it with a reason", name)
	}
	for name := range reachAllowlist {
		if obj := g.byName[name]; obj == nil {
			t.Errorf("allowlisted %s does not exist", name)
		} else if g.reached[obj] {
			t.Errorf("allowlisted %s is reached; drop it from the allowlist", name)
		}
	}
}

// loadedPkg is one type-checked package of the module.
type loadedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// moduleLoader type-checks module packages from source and imports the
// standard library from export data.
type moduleLoader struct {
	fset    *token.FileSet
	std     types.Importer
	stdPkgs []*types.Package
	pkgs    map[string]*loadedPkg
}

// Import implements types.Importer.
func (l *moduleLoader) Import(path string) (*types.Package, error) {
	if path == "repro" || strings.HasPrefix(path, "repro/") {
		lp, err := l.load(path, strings.TrimPrefix(strings.TrimPrefix(path, "repro"), "/"), false)
		if err != nil || lp == nil {
			return nil, err
		}
		return lp.pkg, nil
	}
	pkg, err := l.std.Import(path)
	if err == nil {
		l.stdPkgs = append(l.stdPkgs, pkg)
	}
	return pkg, err
}

// load parses and type-checks the Go files of dir (module-relative)
// that build on this platform, with its in-package test files when
// withTests is set. A directory without Go files loads as nil.
func (l *moduleLoader) load(path, dir string, withTests bool) (*loadedPkg, error) {
	if lp, ok := l.pkgs[path]; ok {
		return lp, nil
	}
	if dir == "" {
		dir = "."
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if _, ok := err.(*build.NoGoError); ok {
		l.pkgs[path] = nil
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	names := bp.GoFiles
	if withTests {
		names = append(names, bp.TestGoFiles...)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	lp := &loadedPkg{pkg: pkg, files: files, info: info}
	l.pkgs[path] = lp
	return lp, nil
}

// reachGraph is the module's declarations and the reached set.
type reachGraph struct {
	decl   map[types.Object]declSite // package-level objects and methods
	groups map[ast.Node][]types.Object
	inits  []declSite // init funcs and package-level var initializers
	byName map[string]types.Object
	// dispatch holds every interface method name in the module and the
	// standard library it imports: a reached type's method of such a
	// name may be called without being named.
	dispatch map[string]bool
	reached  map[types.Object]bool
	queue    []types.Object
}

// declSite is where an object is declared: its AST node, the package's
// type info, and the const group it belongs to.
type declSite struct {
	node  ast.Node
	info  *types.Info
	group ast.Node
}

func newReachGraph(pkgs []*loadedPkg, std []*types.Package) *reachGraph {
	g := &reachGraph{
		decl: map[types.Object]declSite{}, groups: map[ast.Node][]types.Object{},
		byName: map[string]types.Object{},
		// The errors package's Is/As/Unwrap probes use interfaces declared
		// inside its functions, invisible in export data.
		dispatch: map[string]bool{"Error": true, "Unwrap": true, "Is": true, "As": true},
		reached:  map[types.Object]bool{},
	}
	for _, p := range std {
		for _, name := range p.Scope().Names() {
			if iface, ok := p.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumMethods(); i++ {
					g.dispatch[iface.Method(i).Name()] = true
				}
			}
		}
	}
	for _, lp := range pkgs {
		for _, f := range lp.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, name := range m.Names {
							g.dispatch[name.Name] = true
						}
					}
				}
				return true
			})
			for _, d := range f.Decls {
				g.addDecl(lp, d)
			}
		}
	}
	return g
}

// addDecl records the objects one top-level declaration defines.
func (g *reachGraph) addDecl(lp *loadedPkg, d ast.Decl) {
	add := func(id *ast.Ident, node, group ast.Node) {
		obj := lp.info.Defs[id]
		if obj == nil || id.Name == "_" {
			return
		}
		g.decl[obj] = declSite{node: node, info: lp.info, group: group}
		g.byName[qualifiedName(obj)] = obj
		if group != nil {
			g.groups[group] = append(g.groups[group], obj)
		}
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil && d.Name.Name == "init" {
			g.inits = append(g.inits, declSite{node: d, info: lp.info})
			return
		}
		add(d.Name, d, nil)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				add(s.Name, s, nil)
			case *ast.ValueSpec:
				var group ast.Node
				if d.Tok == token.CONST {
					group = d
				} else if len(s.Values) > 0 {
					g.inits = append(g.inits, declSite{node: s, info: lp.info})
				}
				for _, id := range s.Names {
					add(id, s, group)
				}
			}
		}
	}
}

// reach marks obj reached and queues its declaration for a visit.
func (g *reachGraph) reach(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	if g.reached[obj] {
		return
	}
	if _, ok := g.decl[obj]; !ok {
		return // outside the module, a struct field, a local
	}
	g.reached[obj] = true
	g.queue = append(g.queue, obj)
}

// run drains the queue: every reference in a reached declaration is
// reached, a reached const reaches its group, and a reached named type
// reaches its methods that dynamic dispatch may call.
func (g *reachGraph) run() {
	for len(g.queue) > 0 {
		obj := g.queue[len(g.queue)-1]
		g.queue = g.queue[:len(g.queue)-1]
		site := g.decl[obj]
		g.visit(site.node, site.info)
		for _, o := range g.groups[site.group] {
			g.reach(o)
		}
		if tn, ok := obj.(*types.TypeName); ok {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); g.dispatch[m.Name()] {
						g.reach(m)
					}
				}
			}
		}
	}
}

// visit reaches every object referenced inside node.
func (g *reachGraph) visit(node ast.Node, info *types.Info) {
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				g.reach(obj)
			}
		}
		return true
	})
}

// qualifiedName renders obj as module-relative package path, then name
// ("internal/stats.Contingency.ChiSquare" for a method).
func qualifiedName(obj types.Object) string {
	name := obj.Name()
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				name = named.Obj().Name() + "." + name
			}
		}
	}
	return strings.TrimPrefix(strings.TrimPrefix(obj.Pkg().Path(), "repro"), "/") + "." + name
}
