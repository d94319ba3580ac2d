package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// citingDocs are the documents whose backticked test names must name a
// test, benchmark or fuzz target that exists, whose backticked
// internal identifiers must name a declaration that exists, and whose
// backticked repository paths must exist.
var citingDocs = []string{
	"README.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	"bench/README.md",
	".claude/skills/verify/SKILL.md",
}

var (
	// testFunc matches a top-level test, benchmark or fuzz target.
	testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	// codeSpan matches an inline code span.
	codeSpan = regexp.MustCompile("`([^`]+)`")
	// citedName matches a code span that is one such name, optionally
	// followed by a sub-test or sub-benchmark path.
	citedName = regexp.MustCompile(`^((?:Test|Benchmark|Fuzz)\w+)(?:/\S*)?$`)
	// citedDecl matches a code span that is pkg.Exported or
	// pkg.Type.Member, optionally called.
	citedDecl = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Z]\w*(?:\.\w+)?)(?:\(.*\))?$`)
	// citedPath matches a code span whose first token is a path under
	// one of the source trees, optionally written ./path.
	citedPath = regexp.MustCompile(`^(?:\./)?((?:internal|cmd|scripts|examples|bench)/\S*)`)
	// tableRow matches a table row whose first cell is one code span.
	tableRow = regexp.MustCompile("^\\| `([^`]+)` \\|")
	// roadmapNumber matches a ROADMAP item cited by its number
	// ("ROADMAP item 12", "ROADMAP's former 6(c)", "item 6(b)", "item
	// 11's"): the numbers change at every re-anchor, so a document
	// names an item by its title.
	roadmapNumber = regexp.MustCompile(`ROADMAP(?:'s)? (?:former )?(?:item )?\d+\b(?:\([a-z]\))?|\bitems? \d+(?:\([a-z]\)|'s)`)
)

// TestDocsCiteExistingTests: every test, benchmark or fuzz target a
// document names in an inline code span is a func in some _test.go of
// the repository, the bench module's included, every `pkg.Name` or
// `pkg.Type.Member` it names for an internal/ package is declared
// there, and every path under internal/, cmd/, scripts/, examples/ or
// bench/ that a span starts with (a file, a directory, or a command's
// program) exists, so a renamed or deleted test, identifier or file
// cannot leave a document pointing at nothing. A fuzz crasher
// directory (testdata/fuzz/) is exempt: it exists only after a crash.
// So is a run-time output directory that the root .gitignore declares
// as an anchored directory entry (/bench/out/), and everything under
// it: it exists only after a run.
// Fenced code blocks are skipped: their -run and -bench arguments are
// patterns, not names. No line of a document, fenced or not, cites a
// ROADMAP item by its number.
func TestDocsCiteExistingTests(t *testing.T) {
	defined := make(map[string]bool)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !defined["TestDocsCiteExistingTests"] {
		t.Fatal("the walk did not find this test's own file")
	}
	decls, err := internalDecls()
	if err != nil {
		t.Fatal(err)
	}
	if !decls["mix"].has("Chain.Corrupt") || !decls["mix"].has("Corruption.FailMix") {
		t.Fatal("the declaration index misses a method or a field")
	}
	outputs, err := ignoredDirs()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(outputs, "bench/out/") {
		t.Fatalf("the output directories read from .gitignore, %q, miss bench/out/", outputs)
	}
	for _, p := range []string{"internal/nosuch.go", "bench/outer.go"} {
		if !stalePath(p, outputs) {
			t.Fatalf("the path check passes the missing %s", p)
		}
	}
	for _, p := range []string{"bench/out/", "bench/out/seed1.json", "internal/rpc/testdata/fuzz/FuzzDispatch/"} {
		if stalePath(p, outputs) {
			t.Fatalf("the path check does not exempt %s", p)
		}
	}
	for _, s := range []string{"ROADMAP item 12", "ROADMAP's former 6(c)", "ROADMAP item 6(b))", "item 11's stopping rule", "(1(e)) is item 1(e)"} {
		if !roadmapNumber.MatchString(s) {
			t.Fatalf("the item-number check passes %q", s)
		}
	}
	for _, s := range []string{"the ROADMAP's 1M registered", "ROADMAP's *Secrecy is a type* item", "§5.3.1", "12 items", "round 4's"} {
		if roadmapNumber.MatchString(s) {
			t.Fatalf("the item-number check flags %q", s)
		}
	}
	for _, doc := range citingDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Error(err)
			continue
		}
		for i, line := range strings.Split(string(text), "\n") {
			if m := roadmapNumber.FindString(line); m != "" {
				t.Errorf("%s:%d cites %q; name the ROADMAP item by its title", doc, i+1, m)
			}
		}
		prose := withoutFences(string(text))
		for _, m := range codeSpan.FindAllStringSubmatchIndex(prose, -1) {
			span := prose[m[2]:m[3]]
			line := 1 + strings.Count(prose[:m[0]], "\n")
			if name := citedName.FindStringSubmatch(span); name != nil && !defined[name[1]] {
				t.Errorf("%s:%d cites `%s`, which no _test.go defines", doc, line, name[1])
			}
			if d := citedDecl.FindStringSubmatch(span); d != nil {
				if pkg, ok := decls[d[1]]; ok && !pkg.has(d[2]) {
					t.Errorf("%s:%d cites `%s.%s`, which internal/%s does not declare", doc, line, d[1], d[2], d[1])
				}
			}
			if p := citedPath.FindStringSubmatch(span); p != nil && stalePath(p[1], outputs) {
				t.Errorf("%s:%d cites `%s`, which does not exist", doc, line, p[1])
			}
		}
	}
}

// knobStructs are the structs whose every exported field DESIGN.md's
// "Configuration knobs" table must have a row for, by internal
// package.
var knobStructs = map[string][]string{
	"core":     {"Config", "FrontendConfig"},
	"topology": {"Config"},
	"rpc":      {"MultiClient"},
}

// TestKnobTablesComplete: DESIGN.md's "Configuration knobs" table has
// a row for every field of the knobStructs, and its "Command flags"
// table a row for every flag that non-test code under cmd/ defines, so
// a knob or flag cannot arrive without saying what it is and what
// fails without it. A row naming a field or flag that no longer exists
// fails too.
func TestKnobTablesComplete(t *testing.T) {
	// Self-check, both directions: a flag without a row is missing, a
	// row without its flag is stale.
	fset := token.NewFileSet()
	src := `package main
import "flag"
var n = flag.Int("n", 1, "")
func main() { flag.StringVar(&s, "m", "", ""); flag.Func("f", "", nil) }`
	f, err := parser.ParseFile(fset, "main.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool)
	if err := addFlags(got, "tool", f); err != nil {
		t.Fatal(err)
	}
	rows := tableRows("## Command flags\n\n| flag | x |\n|---|---|\n| `tool -n` | y |\n| `tool -gone` | y |\n\n## Next\n| `tool -m` | z |\n", "Command flags")
	missing, stale := mismatch(got, rows)
	if !slices.Equal(missing, []string{"tool -f", "tool -m"}) || !slices.Equal(stale, []string{"tool -gone"}) {
		t.Fatalf("self-check: missing %q, stale %q; want [tool -f tool -m], [tool -gone]", missing, stale)
	}

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	fields, err := knobFields()
	if err != nil {
		t.Fatal(err)
	}
	if !fields["core.Config.NumServers"] || !fields["topology.Config.Seed"] || fields["rpc.MultiClient.clients"] {
		t.Fatalf("the field walk misses core.Config.NumServers or topology.Config.Seed, or counts an unexported field: %v", fields)
	}
	flags, err := cmdFlags()
	if err != nil {
		t.Fatal(err)
	}
	if !flags["xrd-server -role"] || !flags["xrd-loadgen -out"] {
		t.Fatalf("the flag walk misses xrd-server -role or xrd-loadgen -out: %v", flags)
	}
	for table, defined := range map[string]map[string]bool{"Configuration knobs": fields, "Command flags": flags} {
		missing, stale := mismatch(defined, tableRows(string(design), table))
		for _, k := range missing {
			t.Errorf("DESIGN.md's %q table has no row for `%s`", table, k)
		}
		for _, k := range stale {
			t.Errorf("DESIGN.md's %q table has a row for `%s`, which no longer exists", table, k)
		}
	}
}

// mismatch returns, sorted, the names defined but without a row and
// the rows naming nothing defined.
func mismatch(defined, rows map[string]bool) (missing, stale []string) {
	for k := range defined {
		if !rows[k] {
			missing = append(missing, k)
		}
	}
	for k := range rows {
		if !defined[k] {
			stale = append(stale, k)
		}
	}
	slices.Sort(missing)
	slices.Sort(stale)
	return missing, stale
}

// tableRows returns the code span opening each table row of the
// document's "## title" section.
func tableRows(doc, title string) map[string]bool {
	rows := make(map[string]bool)
	in := false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "## ") {
			in = line == "## "+title
			continue
		}
		if m := tableRow.FindStringSubmatch(line); in && m != nil {
			rows[m[1]] = true
		}
	}
	return rows
}

// knobFields returns every exported field of the knobStructs, the
// ones a caller can set, as pkg.Type.Field.
func knobFields() (map[string]bool, error) {
	decls, err := internalDecls()
	if err != nil {
		return nil, err
	}
	fields := make(map[string]bool)
	for pkg, types := range knobStructs {
		for _, typ := range types {
			for _, name := range decls[pkg].fields[typ] {
				if token.IsExported(name) {
					fields[pkg+"."+typ+"."+name] = true
				}
			}
		}
	}
	return fields, nil
}

// cmdFlags returns every flag that non-test code of the commands under
// cmd/ defines, as "command -name".
func cmdFlags() (map[string]bool, error) {
	flags := make(map[string]bool)
	paths, err := filepath.Glob("cmd/*/*.go")
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if err := addFlags(flags, filepath.Base(filepath.Dir(path)), f); err != nil {
			return nil, err
		}
	}
	return flags, nil
}

// addFlags adds the flags one file of command cmd defines through the
// flag package's functions: the name is the first argument, or the
// second of the *Var forms. A name that is not a string literal is an
// error: the table could not be checked against it.
func addFlags(flags map[string]bool, cmd string, f *ast.File) error {
	var err error
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || err != nil {
			return err == nil
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !definesFlag(sel) {
			return true
		}
		arg := 0
		if strings.HasSuffix(sel.Sel.Name, "Var") {
			arg = 1
		}
		lit, ok := call.Args[arg].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			err = fmt.Errorf("cmd/%s: flag.%s with a name that is not a string literal", cmd, sel.Sel.Name)
			return false
		}
		flags[cmd+" -"+strings.Trim(lit.Value, "`\"")] = true
		return true
	})
	return err
}

// definesFlag reports whether a selector is one of the flag package's
// functions that define a flag on the command line.
func definesFlag(sel *ast.SelectorExpr) bool {
	if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
		return false
	}
	switch strings.TrimSuffix(sel.Sel.Name, "Var") {
	case "Bool", "BoolFunc", "Duration", "Float64", "Func", "Int", "Int64", "String", "Text", "Uint", "Uint64", "":
		return true
	}
	return false
}

// stalePath reports whether a cited path does not exist and is not
// exempt: not under a fuzz crasher directory, and not one of the
// output directories (each ending in /) or under one, matched by whole
// path component.
func stalePath(path string, outputs []string) bool {
	if strings.Contains(path, "testdata/fuzz/") {
		return false
	}
	for _, dir := range outputs {
		if strings.HasPrefix(path+"/", dir) {
			return false
		}
	}
	_, err := os.Stat(path)
	return err != nil
}

// ignoredDirs reads the anchored directory entries (/dir/) of the root
// .gitignore, each returned as dir/: what building, testing and
// running write at a fixed place in the repository.
func ignoredDirs() ([]string, error) {
	text, err := os.ReadFile(".gitignore")
	if err != nil {
		return nil, err
	}
	var dirs []string
	for _, line := range strings.Split(string(text), "\n") {
		line = strings.TrimSpace(line)
		if len(line) > 2 && strings.HasPrefix(line, "/") && strings.HasSuffix(line, "/") {
			dirs = append(dirs, line[1:])
		}
	}
	return dirs, nil
}

// withoutFences blanks the lines of fenced code blocks, keeping the
// line count so positions in the result are positions in text.
func withoutFences(text string) string {
	lines := strings.Split(text, "\n")
	fenced := false
	for i, line := range lines {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			lines[i] = ""
			continue
		}
		if fenced {
			lines[i] = ""
		}
	}
	return strings.Join(lines, "\n")
}

// pkgDecls is what one internal package declares: its top-level names,
// each type's fields and methods, and each struct's fields alone.
type pkgDecls struct {
	top     map[string]bool
	members map[string]map[string]bool
	fields  map[string][]string
}

// has reports whether name, Name or Type.Member, is declared.
func (p pkgDecls) has(name string) bool {
	if typ, member, ok := strings.Cut(name, "."); ok {
		return p.top[typ] && p.members[typ][member]
	}
	return p.top[name]
}

// internalDecls parses every Go file under internal/, tests included
// (a document may cite a benchmark as pkg.BenchmarkName), into each
// package's declarations, keyed by package name.
func internalDecls() (map[string]pkgDecls, error) {
	decls := make(map[string]pkgDecls)
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		name := strings.TrimSuffix(f.Name.Name, "_test")
		p, ok := decls[name]
		if !ok {
			p = pkgDecls{top: map[string]bool{}, members: map[string]map[string]bool{}, fields: map[string][]string{}}
			decls[name] = p
		}
		member := func(typ, name string) {
			if p.members[typ] == nil {
				p.members[typ] = make(map[string]bool)
			}
			p.members[typ][name] = true
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					p.top[decl.Name.Name] = true
				} else {
					member(typeName(decl.Recv.List[0].Type), decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							p.top[n.Name] = true
						}
					case *ast.TypeSpec:
						typ := spec.Name.Name
						p.top[typ] = true
						var fields []*ast.Field
						switch body := spec.Type.(type) {
						case *ast.StructType:
							fields = body.Fields.List
						case *ast.InterfaceType:
							fields = body.Methods.List
						}
						_, isStruct := spec.Type.(*ast.StructType)
						for _, fld := range fields {
							for _, n := range fld.Names {
								member(typ, n.Name)
								if isStruct {
									p.fields[typ] = append(p.fields[typ], n.Name)
								}
							}
						}
					}
				}
			}
		}
		return nil
	})
	return decls, err
}

// typeName is the name of a method's receiver type: T for T and *T.
func typeName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
