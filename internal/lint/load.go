package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string // import path
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages without golang.org/x/tools: module
// packages are checked from source, standard-library imports are satisfied
// by compiled export data obtained from `go list -export` (offline; std
// needs no module downloads). A FixtureDir turns the loader into an
// analysistest-style GOPATH loader rooted at testdata/src.
type Loader struct {
	Fset *token.FileSet

	// ModuleDir/ModulePath describe the module whose packages are loaded.
	ModuleDir  string
	ModulePath string

	// FixtureDir, when set, resolves non-stdlib imports as
	// FixtureDir/<importpath> instead of module-relative directories.
	FixtureDir string

	pkgs  map[string]*Package
	cache map[string]*types.Package
	std   *stdImporter
}

// NewLoader returns a loader for the module rooted at dir (containing
// go.mod).
func NewLoader(dir string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := newLoader()
	l.ModuleDir = dir
	l.ModulePath = modPath
	return l, nil
}

// NewFixtureLoader returns a loader resolving imports under srcDir
// (testdata/src), for analyzer tests.
func NewFixtureLoader(srcDir string) *Loader {
	l := newLoader()
	l.FixtureDir = srcDir
	return l
}

func newLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:  fset,
		pkgs:  make(map[string]*Package),
		cache: make(map[string]*types.Package),
		std:   newStdImporter(fset),
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// ModulePackages lists the import paths of every package in the module, in
// lexical order. Directories named testdata and hidden/underscore
// directories are skipped, matching the go tool.
func (l *Loader) ModulePackages() ([]string, error) {
	var out []string
	err := filepath.WalkDir(l.ModuleDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModuleDir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				rel, err := filepath.Rel(l.ModuleDir, path)
				if err != nil {
					return err
				}
				if rel == "." {
					out = append(out, l.ModulePath)
				} else {
					out = append(out, l.ModulePath+"/"+filepath.ToSlash(rel))
				}
				break
			}
		}
		return nil
	})
	sort.Strings(out)
	return out, err
}

// Load type-checks the package with the given import path (module-relative
// or fixture-relative, depending on the loader mode).
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("lint: cannot resolve %q to a source directory", path)
	}
	pkg, err := l.loadDir(dir, path)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

func (l *Loader) dirFor(path string) (string, bool) {
	if l.FixtureDir != "" {
		dir := filepath.Join(l.FixtureDir, filepath.FromSlash(path))
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir, true
		}
		return "", false
	}
	if path == l.ModulePath {
		return l.ModuleDir, true
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleDir, filepath.FromSlash(rest)), true
	}
	return "", false
}

// loadDir parses the non-test files of dir that match the build context and
// type-checks them.
func (l *Loader) loadDir(dir, path string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Honour //go:build lines and _GOOS/_GOARCH suffixes as the go
		// command does, so platform twins do not redeclare each other.
		match, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if !match {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	pkg, err := TypeCheck(l.Fset, path, files, l)
	if err != nil {
		return nil, err
	}
	pkg.Dir = dir
	return pkg, nil
}

// TypeCheck type-checks pre-parsed files into a Package, resolving imports
// through imp. Used by the go vet -vettool driver, where the go command
// supplies the file list and an export-data import map.
func TypeCheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// Import implements types.Importer: local (module or fixture) packages are
// loaded from source; everything else is assumed to be standard library and
// resolved through export data.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if tp, ok := l.cache[path]; ok {
		return tp, nil
	}
	if dir, ok := l.dirFor(path); ok {
		pkg, err := l.loadDir(dir, path)
		if err != nil {
			return nil, err
		}
		l.pkgs[path] = pkg
		l.cache[path] = pkg.Types
		return pkg.Types, nil
	}
	tp, err := l.std.Import(path)
	if err != nil {
		return nil, err
	}
	l.cache[path] = tp
	return tp, nil
}

// ---------------------------------------------------------------------------
// Standard-library importer

// stdImporter satisfies stdlib imports from compiled export data located via
// `go list -export`. This stays fully offline: the std packages are in
// GOROOT and their export data comes from the local build cache.
type stdImporter struct {
	exports map[string]string // import path -> export data file
	gc      types.Importer
}

func newStdImporter(fset *token.FileSet) *stdImporter {
	s := &stdImporter{exports: make(map[string]string)}
	s.gc = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := s.exports[path]
		if !ok {
			if err := s.ensure(path); err != nil {
				return nil, err
			}
			file, ok = s.exports[path]
			if !ok {
				return nil, fmt.Errorf("lint: no export data for %q", path)
			}
		}
		return os.Open(file)
	})
	return s
}

func (s *stdImporter) Import(path string) (*types.Package, error) {
	if err := s.ensure(path); err != nil {
		return nil, err
	}
	return s.gc.Import(path)
}

// ensure populates export-data locations for path and its dependency
// closure.
func (s *stdImporter) ensure(path string) error {
	if _, ok := s.exports[path]; ok {
		return nil
	}
	cmd := exec.Command("go", "list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}", path)
	// Run outside any module so the path is resolved against the standard
	// library alone, not the enclosing module's dependencies.
	cmd.Dir = os.TempDir()
	cmd.Env = append(os.Environ(), "GOFLAGS=")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("lint: go list -export %s: %v\n%s", path, err, stderr.String())
	}
	for _, line := range strings.Split(stdout.String(), "\n") {
		p, file, ok := strings.Cut(strings.TrimSpace(line), "\t")
		if !ok || file == "" {
			continue
		}
		s.exports[p] = file
	}
	return nil
}
