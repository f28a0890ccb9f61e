package crossmodal_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// docs are the documents a reader starts from: README is the how-to,
// DESIGN the architecture, EXPERIMENTS the paper-vs-measured comparison.
var docs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// TestDocsResolve keeps the documents pointing at things that exist:
// every relative link and #anchor resolves, README's architecture block
// lists every package under internal/, every Go comment that cites a
// document names one of its section headings, as `DESIGN.md, "Heading"`,
// and so does every citation of that form in the documents themselves.
func TestDocsResolve(t *testing.T) {
	headings := map[string][]string{}
	for _, doc := range docs {
		headings[doc] = docHeadings(t, doc)
	}

	link := regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)
	for _, doc := range docs {
		for _, m := range link.FindAllStringSubmatch(proseOf(t, doc), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			path, anchor, _ := strings.Cut(target, "#")
			if path == "" {
				path = doc
			}
			if _, err := os.Stat(path); err != nil {
				t.Errorf("%s: link %q: %v", doc, target, err)
				continue
			}
			if anchor == "" {
				continue
			}
			hs, ok := headings[path]
			if !ok {
				hs = docHeadings(t, path)
			}
			if !hasAnchor(hs, anchor) {
				t.Errorf("%s: link %q: no heading in %s has anchor #%s", doc, target, path, anchor)
			}
		}
	}

	block := architectureBlock(t)
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || d.Name() == "testdata" {
			return err
		}
		gofiles, _ := filepath.Glob(filepath.Join(path, "*.go"))
		if len(gofiles) == 0 {
			return nil
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, "internal"+string(filepath.Separator)))
		if !regexp.MustCompile(`(?m)^\s*` + regexp.QuoteMeta(rel) + `/\s`).MatchString(block) {
			t.Errorf("README.md's architecture block does not list internal/%s", rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	cite := regexp.MustCompile(`\b(README|DESIGN|EXPERIMENTS)\.md\b(, "([^"]+)")?`)
	for _, doc := range docs {
		text := strings.Join(strings.Fields(proseOf(t, doc)), " ")
		for _, m := range cite.FindAllStringSubmatch(text, -1) {
			if m[3] != "" && !slices.Contains(headings[m[1]+".md"], m[3]) {
				t.Errorf("%s: cites %s.md, %q, which is not a heading there", doc, m[1], m[3])
			}
		}
	}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// bench/ cites its own README.md; hidden directories hold no program.
			if path == "bench" || d.Name() == "testdata" || path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || path == "docs_test.go" {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			text := strings.Join(strings.Fields(cg.Text()), " ")
			for _, m := range cite.FindAllStringSubmatch(text, -1) {
				doc := m[1] + ".md"
				switch {
				case m[3] == "":
					t.Errorf("%s: cites %s without naming a section (write %s, \"Heading\")", path, doc, doc)
				case !slices.Contains(headings[doc], m[3]):
					t.Errorf("%s: cites %s, %q, which is not a heading there", path, doc, m[3])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// proseOf returns a document with its fenced code blocks removed.
func proseOf(t *testing.T, doc string) string {
	t.Helper()
	raw, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	inFence := false
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if !inFence {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// docHeadings returns the text of every markdown heading outside code.
func docHeadings(t *testing.T, doc string) []string {
	t.Helper()
	var hs []string
	for _, line := range strings.Split(proseOf(t, doc), "\n") {
		if strings.HasPrefix(line, "#") {
			hs = append(hs, strings.TrimSpace(strings.TrimLeft(line, "#")))
		}
	}
	return hs
}

// hasAnchor reports whether one of the headings has GitHub's anchor for
// it: lower case, punctuation dropped, spaces as hyphens, and a -1, -2, …
// suffix on repeats.
func hasAnchor(headings []string, anchor string) bool {
	seen := map[string]int{}
	for _, h := range headings {
		slug := strings.Map(func(r rune) rune {
			switch {
			case r == ' ':
				return '-'
			case r == '-' || r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r):
				return unicode.ToLower(r)
			}
			return -1
		}, h)
		if n := seen[slug]; n > 0 {
			seen[slug]++
			slug += "-" + strconv.Itoa(n)
		} else {
			seen[slug] = 1
		}
		if slug == anchor {
			return true
		}
	}
	return false
}

// architectureBlock returns README's fenced block that maps the tree.
func architectureBlock(t *testing.T) string {
	t.Helper()
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for i, part := range strings.Split(string(raw), "```") {
		if i%2 == 1 && regexp.MustCompile(`(?m)^internal/\s*$`).MatchString(part) {
			return part
		}
	}
	t.Fatal("README.md has no fenced block with an internal/ line")
	return ""
}
