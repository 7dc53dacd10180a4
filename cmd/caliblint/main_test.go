package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"calibsched/internal/lint"
)

// TestFindModuleRootFromSubdir verifies root discovery walks upward past
// package directories.
func TestFindModuleRootFromSubdir(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := findModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Dir(filepath.Dir(wd)) // cmd/caliblint -> module root
	if root != want {
		t.Errorf("findModuleRoot() = %q, want %q", root, want)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Errorf("discovered root has no go.mod: %v", err)
	}
}

// TestLoaderOnSyntheticModule drives the same path main takes — NewLoader
// reading go.mod, Load, Run — against a throwaway module with one
// violation of each analyzer that applies outside the exact packages.
func TestLoaderOnSyntheticModule(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, src string) {
		p := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.com/tiny\n\ngo 1.22\n")
	write("pick/pick.go", `package pick

import "math/rand/v2"

func Pick(n int) int {
	return rand.IntN(n)
}
`)
	loader, err := lint.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loader.ModulePath != "example.com/tiny" {
		t.Fatalf("module path %q", loader.ModulePath)
	}
	targets, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run(loader, targets, lint.Analyzers)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	if diags[0].Analyzer != "seededrand" {
		t.Errorf("diagnostic from %s, want seededrand: %s", diags[0].Analyzer, diags[0])
	}
}

// TestLoaderExportTestHelpers: an external test package sees the
// helpers its package's export_test.go defines, and values from a
// dependency that imports the package under test still type-check
// against it — the go tool rebuilds that dependency against the test
// variant, and the loader must too.
func TestLoaderExportTestHelpers(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, src string) {
		p := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.com/tiny\n\ngo 1.22\n")
	write("box/box.go", "package box\n\ntype Box struct{ n int }\n\nfunc Size(b Box) int { return b.n }\n")
	write("box/export_test.go", "package box\n\nfunc Make(n int) Box { return Box{n} }\n")
	write("box/box_test.go", `package box_test

import (
	"testing"

	"example.com/tiny/box"
	"example.com/tiny/crate"
)

func TestSize(t *testing.T) {
	if box.Size(box.Make(2)) != box.Size(crate.Empty()) + 2 {
		t.Fatal("size")
	}
}
`)
	write("crate/crate.go", "package crate\n\nimport \"example.com/tiny/box\"\n\nfunc Empty() box.Box { return box.Box{} }\n")
	loader, err := lint.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	targets, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 2 || len(targets[0].Checks) != 3 {
		t.Fatalf("loaded %d targets, the first with %d checks; want 2 and lib, in-package test, external test", len(targets), len(targets[0].Checks))
	}
}

// writeSyntheticModule lays down a throwaway module with exactly one
// seededrand violation and returns its root.
func writeSyntheticModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	write := func(rel, src string) {
		p := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.com/tiny\n\ngo 1.22\n")
	write("pick/pick.go", `package pick

import "math/rand/v2"

func Pick(n int) int {
	return rand.IntN(n)
}
`)
	return dir
}

// chdir changes the working directory to dir for the rest of the test
// and restores it afterwards.
func chdir(t *testing.T, dir string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Errorf("restoring working directory: %v", err)
		}
	})
}

// TestRunJSONOutput drives the full CLI path with -json and checks the
// output is a parseable array with the expected flat fields.
func TestRunJSONOutput(t *testing.T) {
	chdir(t, writeSyntheticModule(t))
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code %d, want 1 (one violation); stderr: %s", code, stderr.String())
	}
	var got []jsonDiagnostic
	if err := json.Unmarshal(stdout.Bytes(), &got); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, stdout.String())
	}
	if len(got) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(got), got)
	}
	d := got[0]
	if d.Analyzer != "seededrand" || d.File != filepath.Join("pick", "pick.go") || d.Line != 6 || d.Col == 0 || d.Message == "" {
		t.Errorf("unexpected diagnostic: %+v", d)
	}
}

// TestRunJSONCleanIsEmptyArray pins the contract that a clean run still
// emits a JSON array (so consumers never special-case it) and exits 0.
func TestRunJSONCleanIsEmptyArray(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module example.com/empty\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ok.go"), []byte("package empty\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	chdir(t, dir)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, want 0; stderr: %s", code, stderr.String())
	}
	if strings.TrimSpace(stdout.String()) != "[]" {
		t.Errorf("clean -json output = %q, want []", stdout.String())
	}
}

// TestRunGitHubOutput checks the ::error annotation format, including
// the file/line fields GitHub needs to anchor the annotation.
func TestRunGitHubOutput(t *testing.T) {
	chdir(t, writeSyntheticModule(t))
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-github", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code %d, want 1; stderr: %s", code, stderr.String())
	}
	out := strings.TrimSpace(stdout.String())
	lines := strings.Split(out, "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d annotation lines, want 1:\n%s", len(lines), out)
	}
	wantPrefix := "::error file=" + filepath.Join("pick", "pick.go") + ",line=6,col="
	if !strings.HasPrefix(lines[0], wantPrefix) {
		t.Errorf("annotation %q does not start with %q", lines[0], wantPrefix)
	}
	if !strings.Contains(lines[0], "title=caliblint(seededrand)::") {
		t.Errorf("annotation %q missing analyzer title", lines[0])
	}
}

// TestRunFlagConflict rejects -json with -github rather than silently
// picking one.
func TestRunFlagConflict(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "-github"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "mutually exclusive") {
		t.Errorf("stderr %q does not explain the conflict", stderr.String())
	}
}

// TestGitHubEscape pins the workflow-command data escaping: %, CR, and
// LF must be %-encoded or GitHub truncates the message.
func TestGitHubEscape(t *testing.T) {
	got := githubEscape("50% done\r\nnext line")
	want := "50%25 done%0D%0Anext line"
	if got != want {
		t.Errorf("githubEscape = %q, want %q", got, want)
	}
}
