package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runFixture loads testdata/src/<path> and checks the analyzer's diagnostics
// against the fixture's `// want `regexp“ comments, analysistest-style:
// every want comment must be matched by a diagnostic on its line, and every
// diagnostic must have a matching want comment.
func runFixture(t *testing.T, a *Analyzer, path string) {
	t.Helper()
	l := NewFixtureLoader(filepath.Join("testdata", "src"))
	pkg, err := l.Load(path)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", path, err)
	}
	diags, err := Run(pkg, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, path, err)
	}

	type key struct {
		file string
		line int
	}
	wants := make(map[key]*regexp.Regexp)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				rest = strings.TrimSpace(rest)
				if len(rest) < 2 || rest[0] != '`' || rest[len(rest)-1] != '`' {
					t.Fatalf("%s: malformed want comment %q (expected backquoted regexp)", pkg.Fset.Position(c.Pos()), c.Text)
				}
				re, err := regexp.Compile(rest[1 : len(rest)-1])
				if err != nil {
					t.Fatalf("%s: bad want regexp: %v", pkg.Fset.Position(c.Pos()), err)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants[key{pos.Filename, pos.Line}] = re
			}
		}
	}

	matched := make(map[key]bool)
	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		re, ok := wants[k]
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		if !re.MatchString(d.Message) {
			t.Errorf("%s: diagnostic %q does not match want %q", d.Pos, d.Message, re)
			continue
		}
		matched[k] = true
	}
	for k, re := range wants {
		if !matched[k] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
		}
	}
	if t.Failed() {
		var all []string
		for _, d := range diags {
			all = append(all, fmt.Sprintf("  %s", d))
		}
		t.Logf("all diagnostics:\n%s", strings.Join(all, "\n"))
	}
}

func TestLockOrderFixture(t *testing.T)  { runFixture(t, LockOrder, "lockorder") }
func TestDurabilityFixture(t *testing.T) { runFixture(t, Durability, "durability") }

// TestDurabilityMDSFixture checks the server-side rule: no wait-inline store
// wrapper on an MDS daemon.
func TestDurabilityMDSFixture(t *testing.T) { runFixture(t, Durability, "durabilitymds") }
func TestSimClockFixture(t *testing.T)      { runFixture(t, SimClock, "simclock") }

// TestSimClockDebugHTTPAllowed checks the package-level allow-list: the
// debughttp fixture calls time.Now/Since with no `// want` comments, so the
// run must produce zero diagnostics.
func TestSimClockDebugHTTPAllowed(t *testing.T) { runFixture(t, SimClock, "debughttp") }
func TestSentErrFixture(t *testing.T)           { runFixture(t, SentErr, "senterr") }
func TestHotpathFixture(t *testing.T)           { runFixture(t, Hotpath, "hotpath") }
func TestWireSymFixture(t *testing.T)           { runFixture(t, WireSym, "wiresym") }
func TestWireEvolveFixture(t *testing.T)        { runFixture(t, WireEvolve, "wireevolve") }
func TestWireAliasFixture(t *testing.T)         { runFixture(t, WireAlias, "wirealias") }

// TestLoaderBuildConstraints loads a package whose files declare one function
// per platform: the loader must keep only the files the build context
// selects, as the go command does, or the twins redeclare each other.
func TestLoaderBuildConstraints(t *testing.T) { runFixture(t, SimClock, "buildtags") }

// TestSentErrTextFixture checks the senterr rule that applies in every
// package: no strings matching on an error's text or a RemoteError's message.
func TestSentErrTextFixture(t *testing.T) { runFixture(t, SentErr, "senterrtext") }
