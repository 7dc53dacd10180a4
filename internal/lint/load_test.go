package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLoaderHonoursBuildConstraints: two files declaring the same
// function under complementary build constraints type-check as one
// package, as the go tool builds exactly one of them.
func TestLoaderHonoursBuildConstraints(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"a.go":       "package fix\n\nfunc f() int { return g() }\n",
		"g_unix.go":  "//go:build unix\n\npackage fix\n\nfunc g() int { return 1 }\n",
		"g_other.go": "//go:build !unix\n\npackage fix\n\nfunc g() int { return 2 }\n",
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	targets, err := NewLoaderWithModule(dir, "fix").Load(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 1 || len(targets[0].Checks) != 1 || len(targets[0].Checks[0].Files) != 2 {
		t.Fatalf("want one check of two files, got %+v", targets)
	}
}
