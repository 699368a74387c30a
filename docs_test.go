package repro

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches inline markdown links; the capture is the target.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// machinePath matches every occurrence of /root/ with the path that
// follows it, up to whitespace or the quote, bracket or backtick that
// closes it.
var machinePath = regexp.MustCompile("/root/[^\\s`'\")\\]]*")

// TestDocsRelativeLinksResolve is the docs lint: every relative link in
// README.md, ROADMAP.md and docs/*.md must point at a file that exists,
// so a rename or deletion cannot silently orphan the documentation
// cross-references (external URLs and pure #fragment anchors are out of
// scope). Every one of those files is also checked for machine-local
// /root/ paths, each reported with its line: the docs must cite external
// material descriptively, never by where it sits on one machine.
func TestDocsRelativeLinksResolve(t *testing.T) {
	files := []string{"README.md", "ROADMAP.md"}
	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, docs...)
	if len(files) < 5 {
		t.Fatalf("expected README.md and ROADMAP.md plus at least 3 docs pages, found %v", files)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, p := range machinePath.FindAllString(line, -1) {
				t.Errorf("%s:%d: references the machine-local path %q; cite descriptively instead", f, i+1, p)
			}
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(raw), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "#") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			target, _, _ = strings.Cut(target, "#")
			resolved := filepath.Join(filepath.Dir(f), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: link target %q does not resolve (%v)", f, m[1], err)
			}
		}
	}
}

var (
	// flagDef matches a flag definition in a main package: flag.Int("name", …
	flagDef = regexp.MustCompile(`flag\.\w+\("([a-z0-9-]+)"`)
	// shellContinuation matches a backslash line continuation.
	shellContinuation = regexp.MustCompile(`\\\n\s*`)
	// loadgenCmd matches a loadgen invocation up to the end of its line,
	// its inline code span or its shell command, whichever comes first.
	loadgenCmd = regexp.MustCompile("\\bloadgen(?:-vocab)?(\\s+-[^`\n|;>)]*)")
	// cmdFlag matches one -flag token of such an invocation.
	cmdFlag = regexp.MustCompile(`(?:^|\s)-([a-z][a-z0-9]*)\b`)
	// docFlag matches a -flag token in prose or a usage synopsis: a dash
	// not joined to a word, so "[-k 512]" and "(-h" count and
	// "k-priority" does not.
	docFlag = regexp.MustCompile(`(?:^|[^\w-])-([a-z][a-z0-9]*)\b`)
	// usageFlag matches a -flag token of a Usage synopsis, hyphenated
	// names ("-max-regress") included.
	usageFlag = regexp.MustCompile(`(?:^|[\s\[])-([a-z][a-z0-9-]*)`)
	// shellOp matches a pipe or redirection in a Usage line; a bare "|"
	// between alternatives ("-arrival poisson|bursty") is not one.
	shellOp = regexp.MustCompile(`\s[|<>](?:\s|$)`)
)

// definedFlags is the flag set a main package's source defines, plus
// the flag package's own -h and -help.
func definedFlags(src []byte) map[string]bool {
	defined := map[string]bool{"h": true, "help": true}
	for _, m := range flagDef.FindAllSubmatch(src, -1) {
		defined[string(m[1])] = true
	}
	return defined
}

// TestDocsLoadgenFlagsExist keeps deleted flags out of the docs: every
// -flag on a loadgen command line in README.md, docs/*.md, the CI
// workflow and the verify skill (backslash continuations joined), and
// every -flag in cmd/loadgen's own package doc (its Usage block and
// prose), must be one cmd/loadgen/main.go defines, so removing a flag
// from the command fails here until the last documented use is gone
// too.
func TestDocsLoadgenFlagsExist(t *testing.T) {
	path := filepath.Join("cmd", "loadgen", "main.go")
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defined := definedFlags(src)
	if len(defined) < 10 {
		t.Fatalf("found only %d flag definitions in cmd/loadgen/main.go; has the flag idiom changed?", len(defined))
	}
	files := []string{"README.md", filepath.Join(".github", "workflows", "ci.yml"), filepath.Join(".claude", "skills", "verify", "SKILL.md")}
	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := parser.ParseFile(token.NewFileSet(), path, src, parser.PackageClauseOnly|parser.ParseComments)
	if err != nil || pkg.Doc == nil {
		t.Fatalf("%s: no package doc (%v)", path, err)
	}
	inDoc := docFlag.FindAllStringSubmatch(pkg.Doc.Text(), -1)
	for _, m := range inDoc {
		if !defined[m[1]] {
			t.Errorf("%s: the package doc names -%s, which cmd/loadgen does not define", path, m[1])
		}
	}
	if len(inDoc) < 30 {
		t.Fatalf("checked only %d flags in the %s package doc; the pattern no longer matches its Usage block", len(inDoc), path)
	}
	checked := 0
	for _, f := range append(files, docs...) {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		text := shellContinuation.ReplaceAllString(string(raw), " ")
		for _, cmd := range loadgenCmd.FindAllStringSubmatch(text, -1) {
			for _, m := range cmdFlag.FindAllStringSubmatch(cmd[1], -1) {
				checked++
				if !defined[m[1]] {
					t.Errorf("%s: `loadgen%s` uses -%s, which cmd/loadgen does not define", f, strings.TrimRight(cmd[1], " "), m[1])
				}
			}
		}
	}
	if checked < 50 {
		t.Fatalf("checked only %d documented loadgen flags; the command-line pattern no longer matches the docs", checked)
	}
}

// TestDocsCommandUsageFlagsExist holds every command's Usage block to
// its flag set: each -flag that an invocation of cmd/X in the package
// doc's Usage block names, continuation lines included and anything
// piped or redirected cut off, must be one cmd/X/main.go defines.
func TestDocsCommandUsageFlagsExist(t *testing.T) {
	mains, err := filepath.Glob(filepath.Join("cmd", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	withUsage := 0
	for _, path := range mains {
		name := filepath.Base(filepath.Dir(path))
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := parser.ParseFile(token.NewFileSet(), path, src, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil || pkg.Doc == nil {
			t.Fatalf("%s: no package doc (%v)", path, err)
		}
		usage := usageBlock(pkg.Doc.Text())
		if usage == nil {
			continue
		}
		withUsage++
		defined := definedFlags(src)
		invocation := regexp.MustCompile(`(?:^|[\s|])` + regexp.QuoteMeta(name) + `\b(.*)`)
		checked, inCmd := 0, false
		for _, line := range usage {
			var args string
			if m := invocation.FindStringSubmatch(line); m != nil {
				args, inCmd = m[1], true
			} else if rest := strings.TrimSpace(line); inCmd && strings.HasPrefix(rest, "[") {
				args = rest // a continuation of the invocation above
			} else {
				inCmd = false
				continue
			}
			if loc := shellOp.FindStringIndex(args); loc != nil {
				args, inCmd = args[:loc[0]], false
			}
			for _, m := range usageFlag.FindAllStringSubmatch(args, -1) {
				checked++
				if !defined[m[1]] {
					t.Errorf("%s: the Usage block names -%s, which %s does not define", path, m[1], name)
				}
			}
		}
		if checked == 0 {
			t.Errorf("%s: the Usage block names no flag of %s; the invocation pattern no longer matches it", path, name)
		}
	}
	if withUsage < 8 {
		t.Fatalf("found %d commands with a Usage block, want at least 8", withUsage)
	}
}

// usageBlock returns the indented lines that follow "Usage:" in a
// package doc, or nil when it has none.
func usageBlock(doc string) []string {
	_, after, ok := strings.Cut(doc, "Usage:\n")
	if !ok {
		return nil
	}
	var block []string
	for _, line := range strings.Split(after, "\n") {
		switch {
		case strings.HasPrefix(line, "\t"):
			block = append(block, line)
		case line == "" && len(block) == 0:
			// the blank line between the heading and the block
		default:
			return block
		}
	}
	return block
}

// configField matches a scheduler config field named in prose:
// SchedulerConfig.Name or sched.Config.Name.
var configField = regexp.MustCompile(`\b(?:SchedulerConfig|sched\.Config)\.([A-Z]\w*)`)

// TestDocsConfigFieldsExist keeps deleted options out of the docs: every
// SchedulerConfig.Name / sched.Config.Name in README.md, docs/*.md and
// the verify skill must be a field of repro.SchedulerConfig (which
// TestSchedulerConfigMirrorsSched holds to sched.Config), so removing a
// field fails here until the last documented use is gone too.
func TestDocsConfigFieldsExist(t *testing.T) {
	typ := reflect.TypeOf(SchedulerConfig[int]{})
	files := []string{"README.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")}
	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, f := range append(files, docs...) {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range configField.FindAllSubmatch(raw, -1) {
			checked++
			if _, ok := typ.FieldByName(string(m[1])); !ok {
				t.Errorf("%s: names %s, which is not a field of SchedulerConfig", f, m[0])
			}
		}
	}
	if checked < 5 {
		t.Fatalf("checked only %d documented config fields; the prose pattern no longer matches the docs", checked)
	}
}

// seriesToken matches a scheduler metric series name in prose.
var seriesToken = regexp.MustCompile(`\bsched_[a-z0-9_]+`)

// TestDocsMetricSeriesExist keeps deleted series out of the docs: every
// sched_* token in README.md, docs/*.md, the CI workflow and the verify
// skill must be a series row of docs/METRICS.md — the first
// backtick-quoted name of a table row, label suffix stripped, which is
// how metricsync reads the rows it holds in lockstep with the
// registrations — so removing a series fails here until the last
// documented use or scrape check is gone too.
func TestDocsMetricSeriesExist(t *testing.T) {
	metrics, err := os.ReadFile(filepath.Join("docs", "METRICS.md"))
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{}
	for _, line := range strings.Split(string(metrics), "\n") {
		cells := strings.Split(strings.TrimSpace(line), "`")
		if !strings.HasPrefix(cells[0], "|") || len(cells) < 3 {
			continue
		}
		name, _, _ := strings.Cut(cells[1], "{")
		if strings.HasPrefix(name, "sched_") {
			rows[name] = true
		}
	}
	if len(rows) < 10 {
		t.Fatalf("found only %d series rows in docs/METRICS.md; has the table layout changed?", len(rows))
	}
	files := []string{"README.md", filepath.Join(".github", "workflows", "ci.yml"), filepath.Join(".claude", "skills", "verify", "SKILL.md")}
	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, f := range append(files, docs...) {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range seriesToken.FindAllString(string(raw), -1) {
			checked++
			if !rows[name] {
				t.Errorf("%s: names %s, which is not a series row of docs/METRICS.md", f, name)
			}
		}
	}
	if checked < 20 {
		t.Fatalf("checked only %d documented series names; the pattern no longer matches the docs", checked)
	}
}

// mdName matches a markdown file named in prose: a path ending in .md.
var mdName = regexp.MustCompile(`[\w./-]*\w\.md\b`)

// TestDocsGoCommentFilesExist keeps Go comments from citing documents
// that are gone: every *.md file a comment names must exist, read
// relative to the commenting file's directory, to the repository root,
// or to docs/. A comment that points at a deleted design note fails
// here until it points at the section that holds the content now.
func TestDocsGoCommentFilesExist(t *testing.T) {
	fset := token.NewFileSet()
	checked := 0
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "out") {
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
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, name := range mdName.FindAllString(c.Text, -1) {
					checked++
					found := false
					for _, dir := range []string{filepath.Dir(path), ".", "docs"} {
						if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
							found = true
							break
						}
					}
					if !found {
						t.Errorf("%s: comment names %s, which does not exist", fset.Position(c.Pos()), name)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked < 20 {
		t.Fatalf("checked only %d named *.md files; the pattern no longer matches the comments", checked)
	}
}
