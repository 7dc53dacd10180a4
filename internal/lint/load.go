package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader parses and type-checks the packages of a single Go module using
// only the standard library: module-internal imports are resolved
// recursively against the module root, and standard-library imports are
// type-checked from $GOROOT source via go/importer's "source" compiler.
// Third-party imports are unsupported (the repo deliberately has none).
type Loader struct {
	// ModuleRoot is the absolute directory containing the module.
	ModuleRoot string
	// ModulePath is the module's import path prefix (go.mod "module" line).
	ModulePath string
	// Fset is shared by every file the loader touches, so positions from
	// any check are comparable.
	Fset *token.FileSet

	std     types.Importer
	deps    map[string]*depPackage
	loading map[string]bool
}

// depPackage is the library (non-test) compilation of one module package,
// reused both as an import dependency and as the lib check of a target.
type depPackage struct {
	path  string
	dir   string
	files []*ast.File
	tpkg  *types.Package
	info  *types.Info
}

// Check is one type-checked file set of a target package. A target package
// yields up to three checks: the library files, the library files plus
// in-package _test.go files, and the external (package foo_test) files.
// Report holds the subset of Files that diagnostics should be attributed
// to, so a file checked under several compilations is reported once.
type Check struct {
	Pkg    *types.Package
	Info   *types.Info
	Files  []*ast.File
	Report map[*ast.File]bool
	// Test is true for the two test-file checks.
	Test bool
}

// TargetPackage is one package selected by a load pattern, with every
// compilation unit the go tool would build for it.
type TargetPackage struct {
	Path   string
	Dir    string
	Checks []*Check
}

// NewLoader returns a loader for the module rooted at root, reading the
// module path from root/go.mod.
func NewLoader(root string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: reading go.mod: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return NewLoaderWithModule(root, strings.TrimSpace(rest)), nil
		}
	}
	return nil, fmt.Errorf("lint: no module line in %s/go.mod", root)
}

// NewLoaderWithModule returns a loader with an explicit module path, for
// fixture trees that carry no go.mod of their own.
func NewLoaderWithModule(root, modulePath string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: root,
		ModulePath: modulePath,
		Fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		deps:       make(map[string]*depPackage),
		loading:    make(map[string]bool),
	}
}

// Import implements types.Importer, chaining module-internal paths to the
// loader's own recursive type-checker and everything else to the
// standard-library source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		dep, err := l.loadDep(path)
		if err != nil {
			return nil, err
		}
		return dep.tpkg, nil
	}
	return l.std.Import(path)
}

func (l *Loader) dirFor(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	return filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
}

// loadDep parses and type-checks the library files of the module package
// with the given import path, memoized per loader.
func (l *Loader) loadDep(path string) (*depPackage, error) {
	if dep, ok := l.deps[path]; ok {
		return dep, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirFor(path)
	files, err := l.parseDir(dir, func(name string) bool {
		return !strings.HasSuffix(name, "_test.go")
	})
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go library files in %s", dir)
	}
	tpkg, info, err := l.check(path, files)
	if err != nil {
		return nil, err
	}
	dep := &depPackage{path: path, dir: dir, files: files, tpkg: tpkg, info: info}
	l.deps[path] = dep
	return dep, nil
}

// check type-checks files as package path, returning every soft error the
// checker reports joined into one.
func (l *Loader) check(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var errs []string
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			errs = append(errs, err.Error())
		},
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	if len(errs) > 0 {
		return nil, nil, fmt.Errorf("lint: type-checking %s:\n\t%s", path, strings.Join(errs, "\n\t"))
	}
	return tpkg, info, nil
}

func (l *Loader) parseDir(dir string, keep func(name string) bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if !keep(name) {
			continue
		}
		// Check what the go tool builds here: a file excluded by a
		// //go:build line or a GOOS/GOARCH suffix is not compiled.
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	return files, nil
}

// Load resolves patterns into fully type-checked target packages. A
// pattern is a module-root-relative directory ("internal/core", "." for
// the root package) or a recursive form ending in "/..." ("./..." selects
// every package in the module). Directories named testdata and hidden or
// underscore-prefixed directories are never walked.
func (l *Loader) Load(patterns ...string) ([]*TargetPackage, error) {
	dirSet := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !dirSet[dir] {
			dirSet[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		if pat == "" {
			pat = "."
		}
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			base := filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimSuffix(rest, "/")))
			err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if p != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if ok, err := hasGoFiles(p); err != nil {
					return err
				} else if ok {
					add(p)
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("lint: %w", err)
			}
		} else {
			add(filepath.Join(l.ModuleRoot, filepath.FromSlash(pat)))
		}
	}
	sort.Strings(dirs)

	var targets []*TargetPackage
	for _, dir := range dirs {
		tp, err := l.loadTarget(dir)
		if err != nil {
			return nil, err
		}
		if tp != nil {
			targets = append(targets, tp)
		}
	}
	return targets, nil
}

func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_") {
			return true, nil
		}
	}
	return false, nil
}

// loadTarget builds the up-to-three compilation checks of the package in
// dir. It returns nil for a directory with no Go files.
func (l *Loader) loadTarget(dir string) (*TargetPackage, error) {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	path := l.ModulePath
	if rel != "." {
		path += "/" + filepath.ToSlash(rel)
	}

	testFiles, err := l.parseDir(dir, func(name string) bool {
		return strings.HasSuffix(name, "_test.go")
	})
	if err != nil {
		return nil, err
	}
	var inTests, extTests []*ast.File
	for _, f := range testFiles {
		if strings.HasSuffix(f.Name.Name, "_test") {
			extTests = append(extTests, f)
		} else {
			inTests = append(inTests, f)
		}
	}

	tp := &TargetPackage{Path: path, Dir: dir}

	libOK, err := hasLibFiles(dir)
	if err != nil {
		return nil, err
	}
	var dep *depPackage
	var withTests *types.Package // lib plus in-package tests, for extTests
	if libOK {
		dep, err = l.loadDep(path)
		if err != nil {
			return nil, err
		}
		tp.Checks = append(tp.Checks, &Check{
			Pkg:    dep.tpkg,
			Info:   dep.info,
			Files:  dep.files,
			Report: fileSet(dep.files),
		})
	}
	if len(inTests) > 0 {
		var files []*ast.File
		if dep != nil {
			files = append(files, dep.files...)
		}
		files = append(files, inTests...)
		tpkg, info, err := l.check(path, files)
		if err != nil {
			return nil, err
		}
		withTests = tpkg
		tp.Checks = append(tp.Checks, &Check{
			Pkg:    tpkg,
			Info:   info,
			Files:  files,
			Report: fileSet(inTests),
			Test:   true,
		})
	}
	if len(extTests) > 0 {
		tpkg, info, err := l.checkExternal(path, withTests, extTests)
		if err != nil {
			return nil, err
		}
		tp.Checks = append(tp.Checks, &Check{
			Pkg:    tpkg,
			Info:   info,
			Files:  extTests,
			Report: fileSet(extTests),
			Test:   true,
		})
	}
	if len(tp.Checks) == 0 {
		return nil, nil
	}
	return tp, nil
}

// checkExternal type-checks the external test package of path. The go
// tool builds it against the package compiled with its in-package
// _test.go files (withTests, nil if there are none), so export_test.go
// helpers resolve, and rebuilds every dependency importing that package
// likewise. A scratch dependency cache mirrors both: it maps path to
// withTests and keeps only the cached packages that do not import path,
// so the rest are re-checked against withTests.
func (l *Loader) checkExternal(path string, withTests *types.Package, files []*ast.File) (*types.Package, *types.Info, error) {
	if withTests == nil {
		return l.check(path+"_test", files)
	}
	saved := l.deps
	l.deps = map[string]*depPackage{path: {path: path, tpkg: withTests}}
	for p, dep := range saved {
		if p != path && !imports(dep.tpkg, path, map[*types.Package]bool{}) {
			l.deps[p] = dep
		}
	}
	defer func() { l.deps = saved }()
	return l.check(path+"_test", files)
}

// imports reports whether pkg imports path, directly or transitively.
func imports(pkg *types.Package, path string, seen map[*types.Package]bool) bool {
	for _, imp := range pkg.Imports() {
		if imp.Path() == path {
			return true
		}
		if !seen[imp] {
			seen[imp] = true
			if imports(imp, path, seen) {
				return true
			}
		}
	}
	return false
}

func hasLibFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") &&
			!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_") {
			return true, nil
		}
	}
	return false, nil
}

func fileSet(files []*ast.File) map[*ast.File]bool {
	m := make(map[*ast.File]bool, len(files))
	for _, f := range files {
		m[f] = true
	}
	return m
}
