package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// surfaceAllow names the declarations under internal/ that stay
// without a caller, each with its reason. A key is the package's path below
// internal/, then the receiver type for a method, then the name.
//
// Two kinds of entry are justified. A blocking call of the mpi façade stays
// beside its step-function form, which is what the runtime's own callers
// use: the two are one implementation (DESIGN.md, "One body, one wake"),
// and the façade is MPI's surface for examples and tests. A name of the
// lone-world parallel mode stays until ROADMAP item 1 deletes the mode,
// because the benchmark drives that mode and may not change with it.
var surfaceAllow = map[string]string{
	"mpi.Comm.Allgatherv":     "blocking form of FAllgatherv",
	"mpi.Comm.Bcast":          "blocking form of FBcast",
	"mpi.Comm.Iallgatherv":    "blocking form of FIallgatherv",
	"mpi.Comm.Ireduce":        "blocking form of FIreduce",
	"mpi.Comm.Reduce":         "blocking form of FReduce",
	"mpi.Comm.Split":          "blocking form of FSplit",
	"mpi.Comm.Test":           "blocking form of FTest",
	"mpi.Comm.WaitAny":        "blocking form of FWaitAny",
	"mpi.File.WriteAll":       "blocking form of FWriteAll",
	"mpi.File.WriteShared":    "blocking form of FWriteShared",
	"mpi.Rank.CheckFailed":    "blocking form of FCheckFailed",
	"mpi.Rank.Protect":        "blocking form of FProtect",
	"mpi.Rank.Rebuild":        "blocking form of FRebuild",
	"mpi.Rank.WaitSendWindow": "blocking form of FWaitSendWindow",
	"sim.ShardGroup.Shards":   "parallel mode, deleted with it (ROADMAP item 1)",
	"sim.ShardGroup.Stats":    "parallel mode, deleted with it (ROADMAP item 1)",
}

// TestExportedSurface fails on a func, method or type declared under
// internal/, exported or not, that nothing calls but its own package's
// tests, on an option field that no non-test code sets outside its type's
// withDefaults, and on an allow-list entry that names nothing or has gained
// a caller (DESIGN.md, "The exported surface").
func TestExportedSurface(t *testing.T) {
	rep, err := scanSurface(".", "repro", []string{"internal", "cmd", "examples", "bench/layers"}, surfaceAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.dead {
		t.Errorf("%s: nothing outside its own package's tests uses it (for an option: no non-test code sets it outside withDefaults)", d)
	}
	for _, s := range rep.stale {
		t.Errorf("stale allow-list entry: %s", s)
	}
}

// TestSurfaceRules runs the guard over a fixture tree that holds one
// declaration per rule: no caller, a caller only in its own package's test
// (an exported and an unexported func), a caller only in another package's
// test, a method called only through an interface, an unexported method
// with no caller, a type named only by its own method, allow-list entries
// that pass, name nothing, have a caller and name a missing step-function
// form, and option fields set only by withDefaults, set only by their own
// package's test, set by a literal in another package and set by an
// assignment in their own package.
func TestSurfaceRules(t *testing.T) {
	allow := map[string]string{
		"a.Allowed": "kept without a caller",
		"a.Gone":    "names nothing",
		"a.Live":    "has a caller",
		"a.Wait":    "blocking form of FWait",
		"a.Poll":    "blocking form of FPoll",
	}
	rep, err := scanSurface(filepath.Join("testdata", "surface"), "fixture", []string{"internal", "cmd"}, allow)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"a.Dead":          "dead",
		"a.OwnTestOnly":   "dead",
		"a.Orphan":        "dead",
		"a.Allowed":       "allowed",
		"a.Wait":          "allowed",
		"a.Poll":          "allowed",
		"a.FWait":         "live",
		"a.OtherTestOnly": "live",
		"a.Live":          "live",
		"a.Named":         "live",
		"a.Named.String":  "live",
		"a.Named.unused":  "dead",
		"a.Orphan.self":   "dead",
		"a.ownTestHelper": "dead",
		"b.Helper":        "live",
		"a.Configure":     "live",
		"a.Options":       "live",

		"a.Options.Defaulted":  "dead",
		"a.Options.OwnTestSet": "dead",
		"a.Options.Literal":    "live",
		"a.Options.Assigned":   "live",

		"a.Options.withDefaults": "live",
	}
	if !reflect.DeepEqual(rep.class, want) {
		t.Errorf("classified %v, want %v", rep.class, want)
	}
	wantDead := []string{
		"internal/a/a.go:25 a.Named.unused",
		"internal/a/a.go:28 a.Orphan",
		"internal/a/a.go:30 a.Orphan.self",
		"internal/a/a.go:44 a.Options.Defaulted",
		"internal/a/a.go:46 a.Options.OwnTestSet",
		"internal/a/a.go:5 a.Dead",
		"internal/a/a.go:68 a.ownTestHelper",
		"internal/a/a.go:8 a.OwnTestOnly",
	}
	if !reflect.DeepEqual(rep.dead, wantDead) {
		t.Errorf("dead = %q, want %q", rep.dead, wantDead)
	}
	wantStale := []string{
		"a.Gone names no declaration",
		"a.Live has a caller: cmd/tool/main.go:12",
		"a.Poll is the blocking form of FPoll, which does not exist",
	}
	if !reflect.DeepEqual(rep.stale, wantStale) {
		t.Errorf("stale = %q, want %q", rep.stale, wantStale)
	}
}

// surfaceReport is the guard's verdict on one tree.
type surfaceReport struct {
	class map[string]string // "live", "dead" or "allowed", by allow-list key
	dead  []string          // "file:line key" of each dead declaration
	stale []string          // allow-list entries that name nothing or have a caller
}

// surfaceDecl is one declaration under internal/.
type surfaceDecl struct {
	key    string
	dir    string          // directory relative to the root
	obj    types.Object    // the declaration in its non-test package
	own    [][2]token.Pos  // its own declarations: uses inside them do not count
	recv   *types.TypeName // a method's receiver type
	option bool            // a field of an option type: only a set counts
	caller string          // the first use (for an option, set) that keeps it live
}

// isOptionType reports whether an exported type's fields are options: a
// struct whose name ends in Config, Options or Params.
func isOptionType(tn *types.TypeName) bool {
	_, ok := tn.Type().Underlying().(*types.Struct)
	name := tn.Name()
	return ok && (strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Params"))
}

// surfaceScan type-checks the packages of one module tree.
type surfaceScan struct {
	root, module string
	fset         *token.FileSet
	std          types.Importer
	dirs         map[string]*surfaceDir // by import path
	checked      []*surfaceCheck
}

type surfaceDir struct {
	path, rel            string
	lib, inTest, extTest []*ast.File
	pkg                  *types.Package // the non-test package, once checked
	loading              bool
}

// surfaceCheck is one type-checked package: a non-test package, its
// in-package test variant or its external test package.
type surfaceCheck struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
}

// scanSurface type-checks every package under the walked directories of the
// module rooted at root, whose imports of module resolve to the tree and
// whose other imports resolve to the standard library from source, and
// classifies each func, method and type declared under internal/.
//
// A declaration is live when a use outside its own declaration sits in a
// non-test file or in a test file of another directory, or when it is a
// method by which its type implements an interface some checked package
// names or imports. A dead declaration passes when allow lists it.
func scanSurface(root, module string, walk []string, allow map[string]string) (*surfaceReport, error) {
	fset := token.NewFileSet()
	s := &surfaceScan{root: root, module: module, fset: fset,
		std: importer.ForCompiler(fset, "source", nil), dirs: map[string]*surfaceDir{}}
	for _, w := range walk {
		err := filepath.WalkDir(filepath.Join(root, w), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() {
				_, err = s.dir(path)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	paths := make([]string, 0, len(s.dirs))
	for p := range s.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := s.checkAll(s.dirs[p]); err != nil {
			return nil, err
		}
	}
	return s.classify(allow), nil
}

// dir parses the Go files of one directory that the default build context
// selects.
func (s *surfaceScan) dir(path string) (*surfaceDir, error) {
	rel, err := filepath.Rel(s.root, path)
	if err != nil {
		return nil, err
	}
	imp := s.module + "/" + filepath.ToSlash(rel)
	if d, ok := s.dirs[imp]; ok {
		return d, nil
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return nil, err
	}
	d := &surfaceDir{path: imp, rel: rel}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if ok, err := build.Default.MatchFile(path, name); err != nil || !ok {
			if err != nil {
				return nil, err
			}
			continue
		}
		f, err := parser.ParseFile(s.fset, filepath.Join(path, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			d.lib = append(d.lib, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			d.extTest = append(d.extTest, f)
		default:
			d.inTest = append(d.inTest, f)
		}
	}
	if len(d.lib)+len(d.inTest)+len(d.extTest) > 0 {
		s.dirs[imp] = d
	}
	return d, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// importer resolves the module's paths to the non-test packages of the
// tree, and every other path to the standard library.
func (s *surfaceScan) importer() types.Importer {
	return importerFunc(func(path string) (*types.Package, error) {
		if d, err := s.inModule(path); d != nil || err != nil {
			if err != nil {
				return nil, err
			}
			return s.lib(d)
		}
		return s.std.Import(path)
	})
}

// testImporter is the importer of an external test package: as with go
// test, the package under test is its in-package test variant, and each
// package of the tree that imports it is checked again against that variant.
func (s *surfaceScan) testImporter(under *surfaceDir, variant *types.Package) types.Importer {
	again := map[string]*types.Package{under.path: variant}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if pkg := again[path]; pkg != nil {
			return pkg, nil
		}
		d, err := s.inModule(path)
		if err != nil {
			return nil, err
		}
		if d == nil {
			return s.std.Import(path)
		}
		if !s.imports(d, under.path, map[string]bool{}) {
			return s.lib(d)
		}
		pkg, err := s.check(d.path, d.lib, imp)
		again[path] = pkg
		return pkg, err
	}
	return imp
}

// inModule returns the directory of a path of the module, or nil for a path
// outside it.
func (s *surfaceScan) inModule(path string) (*surfaceDir, error) {
	if path != s.module && !strings.HasPrefix(path, s.module+"/") {
		return nil, nil
	}
	return s.dir(filepath.Join(s.root, filepath.FromSlash(strings.TrimPrefix(path, s.module))))
}

// imports reports whether d's non-test files import target, directly or
// through other packages of the module.
func (s *surfaceScan) imports(d *surfaceDir, target string, seen map[string]bool) bool {
	for _, f := range d.lib {
		for _, spec := range f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			if path == target {
				return true
			}
			if seen[path] {
				continue
			}
			seen[path] = true
			if dep, _ := s.inModule(path); dep != nil && s.imports(dep, target, seen) {
				return true
			}
		}
	}
	return false
}

func (s *surfaceScan) check(path string, files []*ast.File, imp types.Importer) (*types.Package, error) {
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	pkg, err := (&types.Config{Importer: imp}).Check(path, s.fset, files, info)
	if err != nil {
		return nil, err
	}
	s.checked = append(s.checked, &surfaceCheck{pkg: pkg, info: info, files: files})
	return pkg, nil
}

// lib checks a directory's non-test package once.
func (s *surfaceScan) lib(d *surfaceDir) (*types.Package, error) {
	if d.pkg != nil {
		return d.pkg, nil
	}
	if d.loading {
		return nil, fmt.Errorf("import cycle through %s", d.path)
	}
	d.loading = true
	pkg, err := s.check(d.path, d.lib, s.importer())
	d.pkg = pkg
	return pkg, err
}

// checkAll checks a directory's non-test package, its in-package test
// variant and its external test package.
func (s *surfaceScan) checkAll(d *surfaceDir) error {
	if len(d.lib) > 0 {
		if _, err := s.lib(d); err != nil {
			return err
		}
	}
	variant := d.pkg
	if len(d.inTest) > 0 {
		files := append(append([]*ast.File(nil), d.lib...), d.inTest...)
		var err error
		if variant, err = s.check(d.path, files, s.importer()); err != nil {
			return err
		}
	}
	if len(d.extTest) > 0 {
		_, err := s.check(d.path+"_test", d.extTest, s.testImporter(d, variant))
		return err
	}
	return nil
}

// decls lists the funcs, methods and types, exported or not, and the
// exported fields of exported option types declared in the non-test files
// under internal/. An option's own declaration is its type's withDefaults
// method: a default fills the field's zero value, it sets nothing.
func (s *surfaceScan) decls() map[token.Pos]*surfaceDecl {
	out := map[token.Pos]*surfaceDecl{}
	byType := map[*types.TypeName]*surfaceDecl{}
	defaults := map[*types.TypeName][][2]token.Pos{}
	var options []*surfaceDecl
	var methods []*ast.FuncDecl
	info := map[*types.Package]*types.Info{}
	for _, c := range s.checked {
		if _, ok := info[c.pkg]; !ok {
			info[c.pkg] = c.info
		}
	}
	for _, d := range s.dirs {
		if d.pkg == nil || !strings.HasPrefix(filepath.ToSlash(d.rel), "internal/") {
			continue
		}
		defs := info[d.pkg].Defs
		prefix := strings.TrimPrefix(filepath.ToSlash(d.rel), "internal/") + "."
		for _, f := range d.lib {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Recv != nil {
						methods = append(methods, decl)
						continue
					}
					if name := decl.Name.Name; name != "init" && name != "_" {
						obj := defs[decl.Name]
						out[obj.Pos()] = &surfaceDecl{key: prefix + decl.Name.Name, dir: d.rel, obj: obj,
							own: [][2]token.Pos{{decl.Pos(), decl.End()}}}
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok || ts.Name.Name == "_" {
							continue
						}
						obj := defs[ts.Name].(*types.TypeName)
						sd := &surfaceDecl{key: prefix + ts.Name.Name, dir: d.rel, obj: obj,
							own: [][2]token.Pos{{ts.Pos(), ts.End()}}}
						out[obj.Pos()] = sd
						byType[obj] = sd
						if ts.Name.IsExported() && isOptionType(obj) {
							options = append(options, sd)
						}
					}
				}
			}
		}
		for _, m := range methods {
			fn := defs[m.Name].(*types.Func)
			recv := fn.Type().(*types.Signature).Recv().Type()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			named, ok := recv.(*types.Named)
			if !ok {
				continue
			}
			td := byType[named.Obj()]
			if td == nil {
				continue
			}
			span := [2]token.Pos{m.Pos(), m.End()}
			td.own = append(td.own, span)
			if m.Name.Name == "withDefaults" {
				defaults[named.Obj()] = append(defaults[named.Obj()], span)
			}
			if m.Name.Name != "_" {
				out[fn.Pos()] = &surfaceDecl{key: td.key + "." + m.Name.Name, dir: d.rel, obj: fn,
					own: [][2]token.Pos{span}, recv: named.Obj()}
			}
		}
		methods = methods[:0]
	}
	for _, td := range options {
		tn := td.obj.(*types.TypeName)
		st := tn.Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				out[f.Pos()] = &surfaceDecl{key: td.key + "." + f.Name(), dir: td.dir, obj: f,
					own: defaults[tn], option: true}
			}
		}
	}
	return out
}

// use marks decl live if a use at pos counts: set reports whether the use
// sets a field, the only use that counts for an option. A test never sets
// an option: a knob that only tests turn is not one a caller has.
func (s *surfaceScan) use(decl *surfaceDecl, pos token.Pos, set bool) {
	if decl == nil || decl.caller != "" || decl.option && !set {
		return
	}
	for _, r := range decl.own {
		if pos >= r[0] && pos < r[1] {
			return
		}
	}
	p := s.fset.Position(pos)
	rel, _ := filepath.Rel(s.root, p.Filename)
	if strings.HasSuffix(p.Filename, "_test.go") && (decl.option || filepath.Dir(rel) == decl.dir) {
		return
	}
	decl.caller = fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line)
}

func (s *surfaceScan) classify(allow map[string]string) *surfaceReport {
	decls := s.decls()
	// Objects of one declaration differ between the checks of a package
	// (its test variant checks its files again), but they share a position.
	lookup := func(obj types.Object) *surfaceDecl {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if d := decls[obj.Pos()]; d != nil && d.obj.Name() == obj.Name() {
			return d
		}
		return nil
	}
	var ifaces []*types.Interface
	seen := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			if n, ok := t.(*types.Named); !ok || n.TypeParams().Len() == 0 {
				seen[it] = true
				ifaces = append(ifaces, it)
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, c := range s.checked {
		for id, obj := range c.info.Uses {
			s.use(lookup(obj), id.Pos(), false)
		}
		s.sets(c, lookup)
		for e, tv := range c.info.Types {
			t := tv.Type
			if t == nil {
				continue
			}
			addIface(t)
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				s.use(lookup(n.Origin().Obj()), e.Pos(), false)
			}
		}
		for _, pkg := range append([]*types.Package{c.pkg}, c.pkg.Imports()...) {
			for _, name := range pkg.Scope().Names() {
				if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
					addIface(tn.Type())
				}
			}
		}
	}
	for _, d := range decls {
		if d.recv == nil || d.caller != "" {
			continue
		}
		for _, it := range ifaces {
			t := d.recv.Type()
			if hasMethod(it, d.obj.Name()) && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				d.caller = "implements " + it.String()
				break
			}
		}
	}

	rep := &surfaceReport{class: map[string]string{}}
	keys := map[string]*surfaceDecl{}
	for _, d := range decls {
		keys[d.key] = d
		_, allowed := allow[d.key]
		switch {
		case d.caller != "":
			rep.class[d.key] = "live"
		case allowed:
			rep.class[d.key] = "allowed"
		default:
			rep.class[d.key] = "dead"
			p := s.fset.Position(d.obj.Pos())
			rel, _ := filepath.Rel(s.root, p.Filename)
			rep.dead = append(rep.dead, fmt.Sprintf("%s:%d %s", filepath.ToSlash(rel), p.Line, d.key))
		}
	}
	for key, reason := range allow {
		switch d := keys[key]; {
		case d == nil:
			rep.stale = append(rep.stale, key+" names no declaration")
		case d.caller != "":
			rep.stale = append(rep.stale, key+" has a caller: "+d.caller)
		}
		if f, ok := strings.CutPrefix(reason, "blocking form of "); ok && keys[key[:strings.LastIndex(key, ".")+1]+f] == nil {
			rep.stale = append(rep.stale, key+" is the blocking form of "+f+", which does not exist")
		}
	}
	sort.Strings(rep.dead)
	sort.Strings(rep.stale)
	return rep
}

// sets marks the fields that c's files set: a key of a composite literal,
// the target of an assignment or increment, or an operand whose address is
// taken, since a pointer to a field is how a flag or a decoder sets it.
func (s *surfaceScan) sets(c *surfaceCheck, lookup func(types.Object) *surfaceDecl) {
	set := func(e ast.Expr) {
		var id *ast.Ident
		switch e := e.(type) {
		case *ast.SelectorExpr:
			id = e.Sel
		case *ast.Ident:
			id = e
		default:
			return
		}
		if obj := c.info.Uses[id]; obj != nil {
			s.use(lookup(obj), id.Pos(), true)
		}
	}
	for _, f := range c.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				set(n.Key)
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					set(l)
				}
			case *ast.IncDecStmt:
				set(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					set(n.X)
				}
			}
			return true
		})
	}
}

func hasMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}
