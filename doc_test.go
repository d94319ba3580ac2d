package repro

import (
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
// and each type's fields and methods.
type pkgDecls struct {
	top     map[string]bool
	members map[string]map[string]bool
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
			p = pkgDecls{top: map[string]bool{}, members: map[string]map[string]bool{}}
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
						for _, fld := range fields {
							for _, n := range fld.Names {
								member(typ, n.Name)
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
