// Command mutate measures what a package's tests catch. It makes small edits
// (mutants) of the named Go files, runs the tests against each, and prints
// which tests kill which mutant and the kill rate of each file:
//
//	go run ./testdata/mutate internal/mpi/match.go internal/sim/queue.go
//
// Run it from the module root. The operators, in source order, negate a
// comparison, move its boundary (< and <=, > and >=), swap the arms of an if
// with a plain else and drop an expression statement. Each file becomes one
// schema (Untch, Offutt and Harrold, ISSTA 1993) that guards mutant k with
// mutant(k), true only in a run that selects k:
//
//	negate     mutant(k) != (a < b)
//	boundary   (mutant(k) && a <= b) || (!mutant(k) && a < b)
//	swap arms  if mutant(k) != (cond) {
//	drop       if !mutant(k) { stmt }
//
// Each package's test binary is built once against the schemata, and each
// mutant is a run of prebuilt binaries. Dropping the panic that ends a
// function with results leaves a missing return: that mutant does not build
// and is left out of the rate.
//
// Stage 1 runs the tests of the file's package whose coverage profile, each
// test run alone on the unmutated package, reaches the edit. Each distinct
// subset so selected runs once with no mutant selected: a test failing there
// fails because of the tests before it and earns no kill in that subset. A
// mutant that survives stage 1, or that one test alone kills, runs the
// manifest's package (internal/experiments), then, if that misses it too,
// every other package of ./... whose test binary imports the mutated one. A
// test binary that panicked is run again without the tests that already ran;
// one that timed out is not, and its mutant goes no further: the hung test
// is its one recorded killer. It exits 2, naming the test, when a schema with
// no mutant selected fails a test that passes on the unmutated package, or
// TestTrajectoryManifest; and 1 when a file's kill rate falls below
// testdata/mutate/baseline.txt.
package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// timeout bounds one test binary run of a mutant. The slowest package of the
// module passes in about ten seconds on an idle CPU, and a run shares the
// CPUs with as many others as there are; a run that times out counts its
// running test as a killer, so the bound leaves a wide margin.
const timeout = 60 * time.Second

// maxReruns is how many times a package whose test binary panicked is run
// again. A mutant that breaks a path every test takes crashes each test in
// turn; after maxReruns the tests that have not run yet are left unrun. The
// mutant is killed either way, and the crashes recorded name up to
// maxReruns+1 of its killers. A binary that timed out is not run again: each
// further hang would cost a whole timeout, and the one hung test recorded is
// a lower bound on the killers, which can only make fewer tests look
// redundant.
const maxReruns = 3

const (
	module       = "repro"
	baselineFile = "testdata/mutate/baseline.txt"
	manifestPkg  = module + "/internal/experiments" // stage 2 runs it first
	selector     = "REPRO_MUTANT"                   // names the mutant a run selects; only this tool sets it
)

// guardSrc is a file the overlay adds to each mutated package.
const guardSrc = "package %s\n\nimport (\"os\"; \"strconv\")\n\n// mutantOn is the mutant this run selects; 0 selects none.\n" +
	"var mutantOn, _ = strconv.Atoi(os.Getenv(%q))\n\nfunc mutant(k int) bool { return k == mutantOn }\n"

// A subset is one package's covering tests, as stage 1 selects them.
type subset struct {
	pkg, tests string   // import path, and the tests joined by |
	fails      []string // the tests that fail with no mutant selected
}

// A mutant is one edit of one file.
type mutant struct {
	file, pkg string // slash path from the module root, import path
	pos, op   string // file:line:col of the edit, and the edit
	line, col int
	k         int     // its number in the schema; 0 if it does not build
	covering  *subset // the package's tests that execute the edited code, if any

	killers  []string // killing tests, in-package ones first
	inPkg    int      // how many of killers are the package's own tests
	passedBy []string // the package's own tests that passed
}

// A build is one package's test binary, built at most once, against every
// schema; cover is a mutated package's unmutated one, built with coverage.
type build struct {
	pkg, dir, bin, cover string
	deps                 []string // what the test binary imports
	once                 sync.Once
	err                  error
}

// A campaign is one run of the tool.
type campaign struct {
	tmp, overlay string
	builds       map[string]*build // by import path
	built        atomic.Int32
}

func main() {
	os.Exit(run(os.Args[1:]))
}

// run runs the campaign and returns the exit status; the temporary
// directory goes on every path.
func run(files []string) int {
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "usage: go run ./testdata/mutate file.go...")
		return 2
	}
	tmp, err := os.MkdirTemp("", "mutate")
	ok := false
	if err == nil {
		defer os.RemoveAll(tmp)
		ok, err = (&campaign{tmp: tmp}).run(files)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mutate:", err)
		return 2
	}
	if !ok {
		return 1
	}
	return 0
}

func (c *campaign) run(files []string) (bool, error) {
	base, err := readBaseline()
	if err != nil {
		return false, err
	}
	var ms []*mutant
	dirs := []string{"./..."}
	replace := map[string]string{} // the overlay: a source path, then its stand-in
	for i, f := range files {
		files[i] = filepath.ToSlash(filepath.Clean(f))
		fm, schema, name, err := mutants(files[i], len(ms))
		if err != nil {
			return false, err
		}
		guard := filepath.Join(filepath.Dir(files[i]), "zz_mutant_guard.go")
		replace[files[i]], replace[guard] = filepath.Join(c.tmp, fmt.Sprint(i, ".go")), filepath.Join(c.tmp, fmt.Sprint(i, "guard.go"))
		if err := cmp.Or(os.WriteFile(replace[files[i]], []byte(schema), 0o644),
			os.WriteFile(replace[guard], fmt.Appendf(nil, guardSrc, name, selector), 0o644)); err != nil {
			return false, err
		}
		ms = append(ms, fm...)
		dirs = append(dirs, "./"+filepath.Dir(files[i]))
	}
	spec, _ := json.Marshal(map[string]map[string]string{"Replace": replace})
	c.overlay = filepath.Join(c.tmp, "overlay.json")
	if err := os.WriteFile(c.overlay, spec, 0o644); err != nil {
		return false, err
	}
	if c.builds, err = testPackages(dirs); err != nil {
		return false, err
	}

	deps := map[string][]string{}              // the packages that import each mutated one
	covers := map[string]map[string][]string{} // each mutated package's blocks
	subsets := map[[2]string]*subset{}
	var order []*subset
	for _, m := range ms {
		if _, ok := deps[m.pkg]; !ok {
			deps[m.pkg] = c.importers(m.pkg)
			if covers[m.pkg], err = c.coverage(m.pkg); err != nil {
				return false, err
			}
		}
		tests := covering(covers[m.pkg], m)
		if len(tests) == 0 || m.k == 0 {
			continue
		}
		key := [2]string{m.pkg, strings.Join(tests, "|")}
		if subsets[key] == nil {
			subsets[key] = &subset{pkg: key[0], tests: key[1]}
			order = append(order, subsets[key])
		}
		m.covering = subsets[key]
	}

	if err := c.baseline(order); err != nil {
		return false, err
	}
	var done atomic.Int32
	err = each(len(ms)+1, func(i int) error {
		if i == 0 { // beside the mutants, off the longest one's path
			return c.manifestPasses(deps)
		}
		m := ms[i-1]
		if err := c.mutant(m, deps[m.pkg]); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[%d/%d] %s %s: %s\n", done.Add(1), len(ms), m.pos, m.op, m.verdict())
		return nil
	})
	if err != nil {
		return false, err
	}
	fmt.Fprintf(os.Stderr, "mutate: %d test binaries built against the schemata (%d mutated package(s) and the importers run)\n",
		c.built.Load(), len(deps))
	return report(files, ms, order, base), nil
}

// baseline runs each subset with no mutant selected. A test that fails
// there fails because of the tests run before it, so it must fail on the
// unmutated package too, or the schema is not the file.
func (c *campaign) baseline(order []*subset) error {
	return each(len(order), func(i int) error {
		sub, run := order[i], "^("+order[i].tests+")$"
		res, err := c.test(sub.pkg, 0, run)
		if err != nil {
			return err
		}
		if sub.fails = res.tests("fail", "run"); len(sub.fails) == 0 {
			return nil
		}
		plain, err := c.once(c.builds[sub.pkg].cover, c.builds[sub.pkg], 0, run, nil)
		for _, t := range sub.fails {
			if err == nil && !slices.Contains(plain.tests("fail", "run"), t) {
				err = fmt.Errorf("schema not faithful: %s %s fails with no mutant selected, not on the unmutated package (with %s)",
					sub.pkg, t, strings.ReplaceAll(sub.tests, "|", " "))
			}
		}
		return err
	})
}

// manifestPasses runs TestTrajectoryManifest with no mutant selected, when
// its package imports a mutated one.
func (c *campaign) manifestPasses(deps map[string][]string) error {
	for _, ds := range deps {
		if slices.Contains(ds, manifestPkg) {
			res, err := c.test(manifestPkg, 0, "^TestTrajectoryManifest$")
			if err == nil && res.failed {
				err = fmt.Errorf("schema not faithful: %s TestTrajectoryManifest fails with no mutant selected", manifestPkg)
			}
			return err
		}
	}
	return nil
}

// each calls f(0) to f(n-1), on one worker per CPU, and returns the first
// error.
func each(n int, f func(i int) error) error {
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return cmp.Or(errs...)
}

var negate = map[token.Token]token.Token{
	token.EQL: token.NEQ, token.NEQ: token.EQL,
	token.LSS: token.GEQ, token.GEQ: token.LSS,
	token.GTR: token.LEQ, token.LEQ: token.GTR,
}

var boundary = map[token.Token]token.Token{
	token.LSS: token.LEQ, token.LEQ: token.LSS,
	token.GTR: token.GEQ, token.GEQ: token.GTR,
}

// mutants parses one file and lists its mutants in source order, numbering
// those that build from first+1, and returns the file's schema and its
// package's name.
func mutants(file string, first int) ([]*mutant, string, string, error) {
	src, err := os.ReadFile(file)
	if err != nil {
		return nil, "", "", err
	}
	pkg := path.Join(module, filepath.Dir(file))
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, "", "", err
	}
	off := func(p token.Pos) int { return fset.Position(p).Offset }
	var ms []*mutant
	// A guard opens at the start of the node it wraps and closes at its end.
	// At one offset, closings go before openings, inner closings first and
	// outer openings first; ast.Inspect meets the outer node first.
	type insert struct {
		at, order int
		text      string
	}
	var ins []insert
	add := func(n ast.Node, at token.Pos, op string, builds bool, open, close string) {
		p := fset.Position(at)
		m := &mutant{file: file, pkg: pkg, op: op, line: p.Line, col: p.Column,
			pos: fmt.Sprintf("%s:%d:%d", file, p.Line, p.Column)}
		if builds {
			m.k = first + len(ms) + 1
			ins = append(ins, insert{off(n.Pos()), m.k, fmt.Sprintf(open, m.k)}, insert{off(n.End()), -m.k, close})
		}
		ms = append(ms, m)
	}
	// A function with results that ends in a panic needs it: dropping it
	// leaves a missing return. A panic ending an if/else or switch that
	// ends such a function would too; the tree has none, and its schema
	// would fail to build.
	fixed := map[ast.Stmt]bool{}
	ends := func(t *ast.FuncType, body *ast.BlockStmt) {
		if body != nil && t.Results != nil && len(body.List) > 0 {
			fixed[body.List[len(body.List)-1]] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			ends(n.Type, n.Body)
		case *ast.FuncLit:
			ends(n.Type, n.Body)
		case *ast.BinaryExpr:
			if to, ok := negate[n.Op]; ok {
				add(n, n.OpPos, "negate "+n.Op.String()+" to "+to.String(), true, "(mutant(%d) != (", "))")
			}
			if to, ok := boundary[n.Op]; ok {
				// The moved comparison copies the operands unguarded: it
				// runs only when this mutant is selected, and no other is.
				at := off(n.OpPos)
				moved := string(src[off(n.Pos()):at]) + to.String() + string(src[at+len(n.Op.String()):off(n.End())])
				add(n, n.OpPos, "boundary "+n.Op.String()+" to "+to.String(), true,
					"((mutant(%[1]d) && "+strings.ReplaceAll(moved, "%", "%%")+") || (!mutant(%[1]d) && ", "))")
			}
		case *ast.IfStmt:
			if _, ok := n.Else.(*ast.BlockStmt); ok {
				add(n.Cond, n.Pos(), "swap if arms", true, "(mutant(%d) != (", "))")
			}
		case *ast.ExprStmt:
			add(n, n.Pos(), "drop statement", !fixed[n], "if !mutant(%d) { ", " }")
		}
		return true
	})
	slices.SortFunc(ins, func(a, b insert) int { return cmp.Or(a.at-b.at, a.order-b.order) })
	var schema strings.Builder
	last := 0
	for _, in := range ins {
		schema.Write(src[last:in.at])
		schema.WriteString(in.text)
		last = in.at
	}
	schema.Write(src[last:])
	return ms, schema.String(), f.Name.Name, nil
}

// mutant tests one mutant: stage 1 against its package, stage 2 against the
// packages that import it when stage 1 leaves it alive or to one test.
func (c *campaign) mutant(m *mutant, dependents []string) error {
	if m.k == 0 {
		return nil
	}
	hung := false
	if m.covering != nil {
		own, err := c.test(m.pkg, m.k, "^("+m.covering.tests+")$")
		if err != nil {
			return err
		}
		failed := own.tests("fail", "run")
		for _, t := range failed {
			if !slices.Contains(m.covering.fails, t) {
				m.killers = append(m.killers, t)
			}
		}
		m.passedBy = own.tests("pass")
		m.inPkg = len(m.killers)
		hung = own.timedOut
		if len(failed) == 0 && own.failed {
			m.killers = []string{"TestMain"} // the binary failed outside every test
		}
	}
	// The manifest first: a mutant it kills has a killer outside its
	// package, and the rest of ./... is not run for it.
	stages := [][]string{nil, slices.DeleteFunc(slices.Clone(dependents), func(p string) bool { return p == manifestPkg })}
	if len(stages[1]) < len(dependents) {
		stages[0] = []string{manifestPkg}
	}
	for _, pkgs := range stages {
		if len(pkgs) == 0 || hung || len(m.killers) > 1 || len(m.killers) > m.inPkg {
			continue
		}
		// The packages run side by side, as go test runs them.
		res := make([]*pkgRun, len(pkgs))
		if err := each(len(pkgs), func(i int) (err error) {
			res[i], err = c.test(pkgs[i], m.k, "")
			return err
		}); err != nil {
			return err
		}
		for i, p := range pkgs {
			for _, t := range res[i].tests("fail", "run") {
				m.killers = append(m.killers, p[strings.LastIndex(p, "/")+1:]+"."+t)
			}
		}
	}
	return nil
}

func (m *mutant) verdict() string {
	switch {
	case m.k == 0:
		return "does not build"
	case len(m.killers) == 0:
		return "SURVIVED"
	}
	return "killed by " + strings.Join(m.killers, " ")
}

// testPackages lists the packages of dirs that have tests, with what their
// test binaries import.
func testPackages(dirs []string) (map[string]*build, error) {
	out, err := exec.Command("go", append([]string{"list", "-test", "-f", "{{.ImportPath}};{{.Dir}};{{join .Deps \";\"}}"}, dirs...)...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v", strings.Join(dirs, " "), err)
	}
	builds := map[string]*build{}
	for _, line := range strings.Split(string(out), "\n") {
		fields := strings.Split(line, ";")
		if p, ok := strings.CutSuffix(fields[0], ".test"); ok {
			builds[p] = &build{pkg: p, dir: fields[1], deps: fields[2:]}
		}
	}
	return builds, nil
}

// importers lists the packages whose test binary imports pkg, pkg itself
// left out.
func (c *campaign) importers(pkg string) []string {
	var pkgs []string
	for p, b := range c.builds {
		if p != pkg && slices.ContainsFunc(b.deps, func(d string) bool { return d == pkg || strings.HasPrefix(d, pkg+" [") }) {
			pkgs = append(pkgs, p)
		}
	}
	sort.Strings(pkgs)
	return pkgs
}

// coverage runs each test of pkg on its own, built with coverage, and
// returns the tests that execute each block, by the profile's
// "path/file.go:line.col,line.col".
func (c *campaign) coverage(pkg string) (map[string][]string, error) {
	b := c.builds[pkg]
	if b == nil {
		return nil, fmt.Errorf("%s has no tests", pkg)
	}
	b.cover = filepath.Join(c.tmp, strings.ReplaceAll(pkg, "/", "_")+".cover")
	prof := filepath.Join(c.tmp, "cover.out")
	if out, err := exec.Command("go", "test", "-c", "-cover", "-covermode=set", "-o", b.cover, pkg).CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go test -c -cover %s: %v\n%s", pkg, err, out)
	}
	cmd := exec.Command(b.cover, "-test.list", ".")
	cmd.Dir = b.dir
	list, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s -test.list: %v", pkg, err)
	}
	blocks := map[string][]string{}
	for _, t := range strings.Fields(string(list)) {
		if strings.HasPrefix(t, "Benchmark") {
			continue
		}
		cmd := exec.Command(b.cover, "-test.run", "^"+t+"$", "-test.coverprofile", prof, "-test.timeout", timeout.String())
		cmd.Dir = b.dir
		if out, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("%s %s on its own: %v\n%s", pkg, t, err, out)
		}
		data, err := os.ReadFile(prof)
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(data), "\n")[1:] { // after "mode: set"
			if f := strings.Fields(line); len(f) == 3 && f[2] != "0" {
				blocks[f[0]] = append(blocks[f[0]], t)
			}
		}
	}
	return blocks, nil
}

// covering lists, sorted, the tests that execute a block holding m's edit.
func covering(blocks map[string][]string, m *mutant) []string {
	at, seen := m.line<<16|m.col, map[string]bool{}
	for block, tests := range blocks {
		name, span, _ := strings.Cut(block, ":")
		var l0, c0, l1, c1 int
		fmt.Sscanf(span, "%d.%d,%d.%d", &l0, &c0, &l1, &c1)
		if filepath.Base(name) == filepath.Base(m.file) && at >= l0<<16|c0 && at <= l1<<16|c1 {
			for _, t := range tests {
				seen[t] = true
			}
		}
	}
	return slices.Sorted(maps.Keys(seen))
}

// pkgRun is what one package's test binary reported of its top-level tests.
type pkgRun struct {
	failed   bool              // the binary exited non-zero
	crashed  bool              // the binary panicked, timed out or exited mid-test
	timedOut bool              // the binary's own -test.timeout ended it
	state    map[string]string // "run", "pass", "fail" or "skip", by test
}

// tests lists, sorted, the tests whose state is one of states; a test left
// in "run" never ended.
func (r *pkgRun) tests(states ...string) []string {
	var out []string
	for t, s := range r.state {
		if slices.Contains(states, s) {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}

// test runs the tests of pkg that match run ("" runs all) with mutant k (0
// for none) selected, on the binary the first call builds against the
// overlay. A binary that crashed is run again without the tests that ran,
// until it ends cleanly, times out, no test is left or maxReruns reruns have
// been made.
func (c *campaign) test(pkg string, k int, run string) (*pkgRun, error) {
	b := c.builds[pkg]
	b.once.Do(func() {
		bin := filepath.Join(c.tmp, strings.ReplaceAll(pkg, "/", "_")+".test")
		if out, err := exec.Command("go", "test", "-c", "-overlay", c.overlay, "-o", bin, pkg).CombinedOutput(); err != nil {
			b.err = fmt.Errorf("go test -c %s against the schemata: %v\n%s", pkg, err, out)
		}
		b.bin = bin
		c.built.Add(1)
	})
	if b.err != nil {
		return nil, b.err
	}
	r, err := c.once(b.bin, b, k, run, nil)
	for i := 0; err == nil && r.crashed && !r.timedOut && i < maxReruns; i++ {
		var a *pkgRun
		if a, err = c.once(b.bin, b, k, run, slices.Sorted(maps.Keys(r.state))); err == nil {
			r.crashed, r.failed, r.timedOut = a.crashed && len(a.state) > 0, r.failed || a.failed, a.timedOut
			maps.Copy(r.state, a.state)
		}
	}
	return r, err
}

// once runs bin, a test binary of b's package, once through test2json, as
// go test -json does; the binary's own timeout ends a hung run.
func (c *campaign) once(bin string, b *build, k int, run string, skip []string) (*pkgRun, error) {
	cmd := exec.Command("go", "tool", "test2json", "-p", b.pkg, bin, "-test.v=test2json", "-test.paniconexit0",
		"-test.timeout="+timeout.String(), "-test.run="+run, "-test.skip=^("+strings.Join(skip, "|")+")$") // ^()$ skips none
	cmd.Dir, cmd.Env = b.dir, append(os.Environ(), selector+"="+strconv.Itoa(k))
	out, err := cmd.Output()
	if _, exit := err.(*exec.ExitError); err != nil && !exit {
		return nil, fmt.Errorf("%s: %v", bin, err)
	}
	r := &pkgRun{failed: err != nil, state: map[string]string{}}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var ev struct{ Action, Test, Output string }
		if dec.Decode(&ev) != nil {
			break
		}
		top := ev.Test != "" && !strings.Contains(ev.Test, "/")
		switch {
		case ev.Action == "output" && strings.HasPrefix(ev.Output, "panic: "):
			r.crashed = true
			r.timedOut = r.timedOut || strings.HasPrefix(ev.Output, "panic: test timed out after ")
		case top && (ev.Action == "run" || ev.Action == "pass" || ev.Action == "fail" || ev.Action == "skip"):
			r.state[ev.Test] = ev.Action
		}
	}
	r.crashed = r.crashed || len(r.tests("run")) > 0
	return r, nil
}

// report prints the kill matrix, each file's rate against its baseline,
// each in-package test's kills and the order-dependent tests, and reports
// whether every file holds its baseline.
func report(files []string, ms []*mutant, subsets []*subset, base map[string]float64) bool {
	fmt.Println("# kill matrix: mutant, then the tests that kill it (pkg.Test: stage 2)")
	for _, m := range ms {
		fmt.Printf("%s %s: %s\n", m.pos, m.op, m.verdict())
	}
	ok := true
	fmt.Println("\n# kill rate per file: killed/built (mutants that do not build are left out)")
	for _, f := range files {
		var built, killed int
		for _, m := range ms {
			if m.file == f && m.k != 0 {
				built++
				if len(m.killers) > 0 {
					killed++
				}
			}
		}
		rate := 100.0
		if built > 0 {
			rate = float64(killed) * 100 / float64(built)
		}
		note := " (no baseline)"
		if b, found := base[f]; found && rate+0.05 < b {
			note, ok = fmt.Sprintf(" BELOW baseline %.1f%%", b), false
		} else if found {
			note = fmt.Sprintf(" (baseline %.1f%%)", b)
		}
		fmt.Printf("%s %d/%d %.1f%%%s\n", f, killed, built, rate, note)
	}

	// A test is redundant here when each mutant it kills has another
	// recorded killer; a test that kills nothing here guards other files.
	fmt.Println("\n# in-package tests: kills, kills no other test makes, redundant when 0 of >0")
	kills, unique := map[string]int{}, map[string]int{}
	for _, m := range ms {
		for _, t := range m.passedBy {
			kills[t] += 0
		}
		for _, t := range m.killers[:m.inPkg] {
			kills[t]++
			if len(m.killers) == 1 {
				unique[t]++
			}
		}
	}
	for _, t := range slices.Sorted(maps.Keys(kills)) {
		note := ""
		switch {
		case kills[t] == 0:
			note = " kills nothing here"
		case unique[t] == 0:
			note = " REDUNDANT"
		}
		fmt.Printf("%s %d %d%s\n", t, kills[t], unique[t], note)
	}

	// A test that fails in a subset with no mutant selected is listed with
	// the smallest such subset.
	smallest := map[string]*subset{}
	for _, sub := range subsets {
		for _, t := range sub.fails {
			if s := smallest[t]; s == nil || strings.Count(sub.tests, "|") < strings.Count(s.tests, "|") {
				smallest[t] = sub
			}
		}
	}
	if len(smallest) > 0 {
		fmt.Println("\n# order-dependent: fail on the unmutated tree among the selected tests, earn no kill there")
		for _, t := range slices.Sorted(maps.Keys(smallest)) {
			fmt.Printf("%s %s: fails with %s\n", smallest[t].pkg, t, strings.ReplaceAll(smallest[t].tests, "|", " "))
		}
	}
	return ok
}

// readBaseline reads "file rate%" lines; # starts a comment.
func readBaseline() (map[string]float64, error) {
	data, err := os.ReadFile(baselineFile)
	if err != nil {
		return nil, err
	}
	base := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		rate, err := strconv.ParseFloat(strings.TrimSuffix(f[len(f)-1], "%"), 64)
		if len(f) != 2 || err != nil {
			return nil, fmt.Errorf("%s: want \"file rate%%\", got %q", baselineFile, line)
		}
		base[f[0]] = rate
	}
	return base, nil
}
