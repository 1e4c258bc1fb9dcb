package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// repoRoot is the module root, relative to this package.
const repoRoot = "../.."

// citedDocs are the documents whose citations TestDocsCiteWhatExists
// holds to the tree. bench/README.md is not among them: bench/ changes
// only with the benchmark.
var citedDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// commentDirs are the directories whose .go files' comments are held to
// the tree the same way.
var commentDirs = []string{"internal", "cmd", "scripts"}

var (
	// citedFunc is a test, fuzz target, benchmark or example function.
	citedFunc = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark|Example)[A-Z_][A-Za-z0-9_]*`)
	// citedPath is a repository path that begins a word or a quotation;
	// a path after a colon ("<hash>:<path>", a file as it was at a
	// commit) or a slash (an import path, a route) does not match.
	citedPath = regexp.MustCompile("(?:^|[\\s`\"'(\\[])((?:internal|cmd|scripts|bench|\\.github)/[A-Za-z0-9_./*-]*)")
	// citedSection is "EXPERIMENTS.md, PR N" or EXPERIMENTS.md, "<heading>".
	citedSection = regexp.MustCompile(`EXPERIMENTS\.md,?\s+(?:PR\s+(\d+)|"([^"]+)")`)
	// citedDesign is "DESIGN §N" or "DESIGN.md §N.M".
	citedDesign = regexp.MustCompile(`DESIGN(?:\.md)?,?\s+§\s*(\d+(?:\.\d+)?)`)
	// pkgMember is where a path turns into a package member, as in
	// internal/serve.TestEnginesMatchModel.
	pkgMember = regexp.MustCompile(`\.[A-Z]`)
)

// TestDocsCiteWhatExists holds every citation of README.md, DESIGN.md,
// EXPERIMENTS.md and the Go comments under internal/, cmd/ and scripts/
// to the tree: a cited Test, Fuzz, Benchmark or Example name is a
// function of some .go file, a cited path exists, and a cited
// EXPERIMENTS.md section or DESIGN § is a heading there.
func TestDocsCiteWhatExists(t *testing.T) {
	funcs := map[string]bool{}
	type source struct{ name, text string }
	var sources []source
	fset := token.NewFileSet()
	err := filepath.WalkDir(repoRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != repoRoot && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs[fn.Name.Name] = true
			}
		}
		rel, _ := filepath.Rel(repoRoot, path)
		top, _, _ := strings.Cut(filepath.ToSlash(rel), "/")
		for _, dir := range commentDirs {
			if top == dir {
				for _, g := range f.Comments {
					sources = append(sources, source{filepath.ToSlash(rel) + ":" + strconv.Itoa(fset.Position(g.Pos()).Line), g.Text()})
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string]string{}
	for _, name := range citedDocs {
		raw, err := os.ReadFile(filepath.Join(repoRoot, name))
		if err != nil {
			t.Fatal(err)
		}
		docs[name] = string(raw)
		for i, line := range strings.Split(string(raw), "\n") {
			sources = append(sources, source{name + ":" + strconv.Itoa(i+1), line})
		}
	}
	experimentsHeadings := headings(docs["EXPERIMENTS.md"])
	designHeadings := headings(docs["DESIGN.md"])
	for _, s := range sources {
		for _, loc := range citedFunc.FindAllStringIndex(s.text, -1) {
			// A name in angle brackets is a placeholder: testdata/fuzz/<FuzzName>/.
			if name := s.text[loc[0]:loc[1]]; !funcs[name] && !strings.HasSuffix(s.text[:loc[0]], "<") {
				t.Errorf("%s cites %s, which is no function in the tree", s.name, name)
			}
		}
		for _, m := range citedPath.FindAllStringSubmatch(s.text, -1) {
			// Keep the path of a package member.
			p := m[1]
			if i := pkgMember.FindStringIndex(p); i != nil {
				p = p[:i[0]]
			}
			p = strings.TrimRight(p, ".")
			if matches, _ := filepath.Glob(filepath.Join(repoRoot, p)); len(matches) == 0 {
				t.Errorf("%s cites %s, which does not exist", s.name, p)
			}
		}
		for _, m := range citedSection.FindAllStringSubmatch(s.text, -1) {
			want := m[2]
			if strings.Contains(want, "<") {
				continue // a placeholder, as in this file's comments
			}
			if m[1] != "" {
				want = "PR " + m[1] + ":"
			}
			if !hasHeading(experimentsHeadings, want) {
				t.Errorf("%s cites EXPERIMENTS.md, %q, which is no heading there", s.name, want)
			}
		}
		for _, m := range citedDesign.FindAllStringSubmatch(s.text, -1) {
			if want := m[1]; !hasHeading(designHeadings, want+".") && !hasHeading(designHeadings, want+" ") {
				t.Errorf("%s cites DESIGN §%s, which is no heading there", s.name, want)
			}
		}
	}
}

// headings are the texts of doc's Markdown headings, without the marks.
func headings(doc string) []string {
	var hs []string
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "#") {
			hs = append(hs, strings.TrimSpace(strings.TrimLeft(line, "#")))
		}
	}
	return hs
}

// hasHeading reports whether some heading begins with prefix.
func hasHeading(hs []string, prefix string) bool {
	for _, h := range hs {
		if strings.HasPrefix(h, prefix) {
			return true
		}
	}
	return false
}
