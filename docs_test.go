package repro

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches inline markdown links; the capture is the target.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestDocsRelativeLinksResolve is the docs lint: every relative link in
// README.md, ROADMAP.md and docs/*.md must point at a file that exists,
// so a rename or deletion cannot silently orphan the documentation
// cross-references (external URLs and pure #fragment anchors are out of
// scope). ROADMAP.md is also checked for absolute paths: it must cite
// external material descriptively, never by machine-local path.
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
		if strings.Contains(string(raw), "/root/") {
			t.Errorf("%s: references a machine-local /root/... path; cite descriptively instead", f)
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
	flagDef = regexp.MustCompile(`flag\.\w+\("([a-z0-9]+)"`)
	// shellContinuation matches a backslash line continuation.
	shellContinuation = regexp.MustCompile(`\\\n\s*`)
	// loadgenCmd matches a loadgen invocation up to the end of its line,
	// its inline code span or its shell command, whichever comes first.
	loadgenCmd = regexp.MustCompile("\\bloadgen(?:-vocab)?(\\s+-[^`\n|;>)]*)")
	// cmdFlag matches one -flag token of such an invocation.
	cmdFlag = regexp.MustCompile(`(?:^|\s)-([a-z][a-z0-9]*)\b`)
)

// TestDocsLoadgenFlagsExist keeps deleted flags out of the docs: every
// -flag on a loadgen command line in README.md, docs/*.md, the CI
// workflow and the verify skill (backslash continuations joined) must
// be one cmd/loadgen/main.go defines, so removing a flag from the
// command fails here until the last documented use is gone too.
func TestDocsLoadgenFlagsExist(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("cmd", "loadgen", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]bool{"h": true, "help": true} // the flag package's own
	for _, m := range flagDef.FindAllSubmatch(src, -1) {
		defined[string(m[1])] = true
	}
	if len(defined) < 10 {
		t.Fatalf("found only %d flag definitions in cmd/loadgen/main.go; has the flag idiom changed?", len(defined))
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
