// Command mutate measures what a package's tests catch. It changes the named
// Go files one small edit (a mutant) at a time, runs the tests against each
// mutant through go test -overlay, and prints which tests kill which mutant
// and the kill rate of each file:
//
//	go run ./testdata/mutate internal/mpi/match.go internal/sim/queue.go
//
// Run it from the module root. The operators, applied in source order, are:
// negate a comparison, move a comparison's boundary (< and <=, > and >=),
// swap the arms of an if with a plain else, and drop an expression
// statement. A mutant that does not build is left out of the rate.
//
// Stage 1 runs the tests of the mutated file's own package that execute the
// mutated code, read off a coverage profile of each test run on its own
// against the unmutated package: a test that never reaches the code cannot
// kill it. Each distinct subset of tests so selected runs once on the
// unmutated tree first: a test that fails there fails because of the tests
// run before it, not because of a mutant, so it earns no kill in that
// subset and the report lists it as order-dependent. A mutant that survives
// them, or that only one of them kills, then runs the trajectory manifest's
// package (internal/experiments) and,
// if that misses it too, every other package of ./... whose test binary
// imports the mutated package: a package that does not import the mutated
// code cannot kill it. A test binary that panics or times out is run again
// without the tests that already ran, so the tests after the crash run too.
//
// It exits 1 when a file's kill rate falls below the rate recorded for it in
// testdata/mutate/baseline.txt (DESIGN.md, "Mutation budget").
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// timeout bounds one go test run of a mutant. The slowest package of the
// module passes in about ten seconds on an idle CPU, and a run shares the
// CPUs with as many others as there are; a run that times out counts its
// running test as a killer, so the bound leaves a wide margin.
const timeout = 60 * time.Second

// maxReruns is how many times a package whose test binary crashed is run
// again. A mutant that breaks a path every test takes crashes each test in
// turn, and a hang costs timeout each; after maxReruns the tests that have
// not run yet are left unrun. The mutant is killed either way, and the
// crashes recorded name up to maxReruns+1 of its killers.
const maxReruns = 3

const (
	baselineFile = "testdata/mutate/baseline.txt"
	manifestPkg  = "repro/internal/experiments" // stage 2 runs it first
)

// A subset is one package's covering tests, as stage 1 selects them.
type subset struct {
	pkg, tests string   // import path, and the tests joined by |
	fails      []string // the tests that fail on the unmutated tree
}

// A mutant is one edit of one file.
type mutant struct {
	file, pkg string // slash path from the module root, import path
	pos, op   string // file:line:col of the edit, and the edit
	line, col int
	src       []byte  // the whole mutated file
	covering  *subset // the package's tests that execute the edited code, if any

	noBuild  bool
	killers  []string // killing tests, in-package ones first
	inPkg    int      // how many of killers are the package's own tests
	passedBy []string // the package's own tests that passed
}

func main() {
	files := os.Args[1:]
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "usage: go run ./testdata/mutate file.go...")
		os.Exit(2)
	}
	check := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "mutate:", err)
			os.Exit(2)
		}
	}
	base, err := readBaseline()
	check(err)
	tmp, err := os.MkdirTemp("", "mutate")
	check(err)
	defer os.RemoveAll(tmp)
	var ms []*mutant
	deps := map[string][]string{}              // the packages that import each mutated one
	covers := map[string]map[string][]string{} // each mutated package's blocks
	subsets := map[[2]string]*subset{}
	var order []*subset
	for i, f := range files {
		files[i] = filepath.ToSlash(filepath.Clean(f))
		fm, err := mutants(files[i])
		check(err)
		for _, m := range fm {
			if _, ok := deps[m.pkg]; !ok {
				deps[m.pkg], err = importers(m.pkg)
				check(err)
				covers[m.pkg], err = coverage(filepath.Dir(m.file), tmp)
				check(err)
			}
			tests := covering(covers[m.pkg], m)
			if len(tests) == 0 {
				continue
			}
			key := [2]string{m.pkg, strings.Join(tests, "|")}
			if subsets[key] == nil {
				subsets[key] = &subset{pkg: key[0], tests: key[1]}
				order = append(order, subsets[key])
			}
			m.covering = subsets[key]
		}
		ms = append(ms, fm...)
	}

	each(len(order), func(i int) {
		sub := order[i]
		res, err := goTest("", "^("+sub.tests+")$", sub.pkg)
		check(err)
		sub.fails = res[sub.pkg].tests("fail", "run")
	})
	var mu sync.Mutex
	done := 0
	each(len(ms), func(i int) {
		m := ms[i]
		check(m.run(filepath.Join(tmp, strconv.Itoa(i)), deps[m.pkg]))
		mu.Lock()
		done++
		fmt.Fprintf(os.Stderr, "[%d/%d] %s %s: %s\n", done, len(ms), m.pos, m.op, m.verdict())
		mu.Unlock()
	})
	if !report(files, ms, order, base) {
		os.Exit(1)
	}
}

// each calls f(0) to f(n-1), on one worker per CPU.
func each(n int, f func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
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

// mutants parses one file and lists its mutants in source order.
func mutants(file string) ([]*mutant, error) {
	src, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	out, err := exec.Command("go", "list", "-f", "{{.ImportPath}}", "./"+filepath.Dir(file)).Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v", filepath.Dir(file), err)
	}
	pkg := strings.TrimSpace(string(out))
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	off := func(p token.Pos) int { return fset.Position(p).Offset }
	var ms []*mutant
	// add records a mutant that replaces the spans [from, to) of src, given
	// in order, by texts.
	add := func(at token.Pos, op string, spans [][2]token.Pos, texts ...string) {
		var b bytes.Buffer
		last := 0
		for i, s := range spans {
			b.Write(src[last:off(s[0])])
			b.WriteString(texts[i])
			last = off(s[1])
		}
		b.Write(src[last:])
		p := fset.Position(at)
		ms = append(ms, &mutant{file: file, pkg: pkg, op: op, line: p.Line, col: p.Column,
			pos: fmt.Sprintf("%s:%d:%d", file, p.Line, p.Column), src: b.Bytes()})
	}
	text := func(n ast.Node) string { return string(src[off(n.Pos()):off(n.End())]) }
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			span := [][2]token.Pos{{n.OpPos, n.OpPos + token.Pos(len(n.Op.String()))}}
			if to, ok := negate[n.Op]; ok {
				add(n.OpPos, "negate "+n.Op.String()+" to "+to.String(), span, to.String())
			}
			if to, ok := boundary[n.Op]; ok {
				add(n.OpPos, "boundary "+n.Op.String()+" to "+to.String(), span, to.String())
			}
		case *ast.IfStmt:
			if els, ok := n.Else.(*ast.BlockStmt); ok {
				add(n.Pos(), "swap if arms", [][2]token.Pos{{n.Body.Pos(), n.Body.End()}, {els.Pos(), els.End()}},
					text(els), text(n.Body))
			}
		case *ast.ExprStmt:
			add(n.Pos(), "drop statement", [][2]token.Pos{{n.Pos(), n.End()}}, "")
		}
		return true
	})
	return ms, nil
}

// run tests one mutant: stage 1 against its package, stage 2 against the
// packages that import it when stage 1 leaves it alive or to one test.
func (m *mutant) run(dir string, dependents []string) error {
	abs, err := filepath.Abs(m.file)
	if err != nil {
		return err
	}
	mutated, overlay := filepath.Join(dir, filepath.Base(m.file)), filepath.Join(dir, "overlay.json")
	spec, _ := json.Marshal(map[string]map[string]string{"Replace": {abs: mutated}})
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := os.WriteFile(mutated, m.src, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(overlay, spec, 0o644); err != nil {
		return err
	}
	if m.covering == nil {
		// No test of the package reaches the edit; it must still build.
		if m.noBuild = exec.Command("go", "build", "-overlay", overlay, "./"+filepath.Dir(m.file)).Run() != nil; m.noBuild {
			return nil
		}
	} else {
		res, err := goTest(overlay, "^("+m.covering.tests+")$", m.pkg)
		if err != nil {
			return err
		}
		own := res[m.pkg]
		if m.noBuild = own.noBuild; m.noBuild {
			return nil
		}
		failed := own.tests("fail", "run")
		for _, t := range failed {
			if !slices.Contains(m.covering.fails, t) {
				m.killers = append(m.killers, t)
			}
		}
		m.passedBy = own.tests("pass")
		m.inPkg = len(m.killers)
		if len(failed) == 0 && own.failed {
			m.killers = []string{"TestMain"} // the binary failed outside every test
		}
	}
	// The manifest first: a mutant it kills has a killer outside its
	// package, and the rest of ./... is not run for it.
	var first, rest []string
	for _, p := range dependents {
		if p == manifestPkg {
			first = append(first, p)
		} else {
			rest = append(rest, p)
		}
	}
	for _, pkgs := range [][]string{first, rest} {
		if len(pkgs) == 0 || len(m.killers) > 1 || len(m.killers) > m.inPkg {
			continue
		}
		res, err := goTest(overlay, "", pkgs...)
		if err != nil {
			return err
		}
		for _, p := range pkgs {
			for _, t := range res[p].tests("fail", "run") {
				m.killers = append(m.killers, p[strings.LastIndex(p, "/")+1:]+"."+t)
			}
		}
	}
	return nil
}

func (m *mutant) verdict() string {
	switch {
	case m.noBuild:
		return "does not build"
	case len(m.killers) == 0:
		return "SURVIVED"
	}
	return "killed by " + strings.Join(m.killers, " ")
}

// importers lists the packages of ./... whose test binary imports pkg,
// pkg itself left out.
func importers(pkg string) ([]string, error) {
	out, err := exec.Command("go", "list", "-test", "-f", "{{.ImportPath}};{{join .Deps \";\"}}", "./...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list ./...: %v", err)
	}
	var pkgs []string
	for _, line := range strings.Split(string(out), "\n") {
		fields := strings.Split(line, ";")
		p, ok := strings.CutSuffix(fields[0], ".test")
		if !ok || p == pkg {
			continue
		}
		for _, d := range fields[1:] {
			if d == pkg || strings.HasPrefix(d, pkg+" [") {
				pkgs = append(pkgs, p)
				break
			}
		}
	}
	sort.Strings(pkgs)
	return pkgs, nil
}

// coverage runs each test of the package in dir on its own, built with
// coverage, and returns the tests that execute each block, by the profile's
// "path/file.go:line.col,line.col".
func coverage(dir, tmp string) (map[string][]string, error) {
	bin, prof := filepath.Join(tmp, "cover.test"), filepath.Join(tmp, "cover.out")
	if out, err := exec.Command("go", "test", "-c", "-cover", "-covermode=set", "-o", bin, "./"+dir).CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go test -c -cover ./%s: %v\n%s", dir, err, out)
	}
	cmd := exec.Command(bin, "-test.list", ".")
	cmd.Dir = dir
	list, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s -test.list: %v", dir, err)
	}
	blocks := map[string][]string{}
	for _, t := range strings.Fields(string(list)) {
		if strings.HasPrefix(t, "Benchmark") {
			continue
		}
		cmd := exec.Command(bin, "-test.run", "^"+t+"$", "-test.coverprofile", prof, "-test.timeout", timeout.String())
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("%s %s on its own: %v\n%s", dir, t, err, out)
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
	var out []string
	for block, tests := range blocks {
		name, span, _ := strings.Cut(block, ":")
		var l0, c0, l1, c1 int
		fmt.Sscanf(span, "%d.%d,%d.%d", &l0, &c0, &l1, &c1)
		if filepath.Base(name) != filepath.Base(m.file) || at < l0<<16|c0 || at > l1<<16|c1 {
			continue
		}
		for _, t := range tests {
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	sort.Strings(out)
	return out
}

// pkgRun is what go test -json reported of one package's top-level tests.
type pkgRun struct {
	noBuild, failed bool
	crashed         bool              // the binary panicked, timed out or exited mid-test
	state           map[string]string // "run", "pass", "fail" or "skip", by test
}

// tests lists, sorted, the tests whose state is one of states; a test left
// in "run" never ended.
func (r *pkgRun) tests(states ...string) []string {
	var out []string
	for t, s := range r.state {
		for _, want := range states {
			if s == want {
				out = append(out, t)
			}
		}
	}
	sort.Strings(out)
	return out
}

// goTest runs the packages' tests, under an overlay unless it is "". A
// package whose test binary crashed is run again, skipping every test that
// already ran, until it ends cleanly, no test is left to skip or maxReruns
// runs have been made.
func goTest(overlay, run string, pkgs ...string) (map[string]*pkgRun, error) {
	res, err := goTestOnce(overlay, run, nil, pkgs)
	if err != nil {
		return nil, err
	}
	for _, p := range pkgs {
		r := res[p]
		for i := 0; r.crashed && i < maxReruns; i++ {
			skip := make([]string, 0, len(r.state))
			for t := range r.state {
				skip = append(skip, t)
			}
			sort.Strings(skip)
			again, err := goTestOnce(overlay, run, skip, []string{p})
			if err != nil {
				return nil, err
			}
			a := again[p]
			r.crashed, r.failed = a.crashed && len(a.state) > 0, r.failed || a.failed
			for t, s := range a.state {
				r.state[t] = s
			}
		}
	}
	return res, nil
}

func goTestOnce(overlay, run string, skip, pkgs []string) (map[string]*pkgRun, error) {
	args := []string{"test", "-count=1", "-json", "-vet=off", "-timeout", timeout.String()}
	if overlay != "" {
		args = append(args, "-overlay", overlay)
	}
	if run != "" {
		args = append(args, "-run", run)
	}
	if len(skip) > 0 {
		args = append(args, "-skip", "^("+strings.Join(skip, "|")+")$")
	}
	var stderr bytes.Buffer
	cmd := exec.Command("go", append(args, pkgs...)...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if _, exit := err.(*exec.ExitError); err != nil && !exit {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("go test printed nothing: %s", stderr.String())
	}
	res := map[string]*pkgRun{}
	for _, p := range pkgs {
		res[p] = &pkgRun{state: map[string]string{}}
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var ev struct{ Action, Package, Test, Output, FailedBuild string }
		if json.Unmarshal(sc.Bytes(), &ev) != nil || res[ev.Package] == nil {
			continue
		}
		r := res[ev.Package]
		top := ev.Test != "" && !strings.Contains(ev.Test, "/")
		switch {
		case ev.FailedBuild != "":
			r.noBuild = true
		case ev.Test == "" && ev.Action == "fail":
			r.failed = true
		case ev.Action == "output" && strings.HasPrefix(ev.Output, "panic: "):
			r.crashed = true
		case top && (ev.Action == "run" || ev.Action == "pass" || ev.Action == "fail" || ev.Action == "skip"):
			r.state[ev.Test] = ev.Action
		}
	}
	for _, r := range res {
		r.crashed = r.crashed || len(r.tests("run")) > 0
	}
	return res, nil
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
			if m.file == f && !m.noBuild {
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
	names := make([]string, 0, len(kills))
	for t := range kills {
		names = append(names, t)
	}
	sort.Strings(names)
	for _, t := range names {
		note := ""
		switch {
		case kills[t] == 0:
			note = " kills nothing here"
		case unique[t] == 0:
			note = " REDUNDANT"
		}
		fmt.Printf("%s %d %d%s\n", t, kills[t], unique[t], note)
	}

	// A test that fails in a subset on the unmutated tree is listed with
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
		names = names[:0]
		for t := range smallest {
			names = append(names, t)
		}
		sort.Strings(names)
		for _, t := range names {
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
