package engine

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOnlyTheGroupHostsEngines: the engine has one host, shard.Group, so
// no Go file of the module outside internal/engine and internal/shard
// constructs or recovers an engine. Figures, examples, benches and tests
// that need an engine run a (one-shard) group.
func TestOnlyTheGroupHostsEngines(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not at %s: %v", root, err)
	}
	allowed := []string{filepath.Join(root, "internal", "engine"), filepath.Join(root, "internal", "shard")}
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			for _, dir := range allowed {
				if path == dir {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		files++
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, call := range []string{"engine.New(", "engine.Recover("} {
			if bytes.Contains(src, []byte(call)) {
				rel, _ := filepath.Rel(root, path)
				t.Errorf("%s calls %s: host the engine on a shard.Group", rel, call)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("walked %d Go files under %s; the walk missed the module", files, root)
	}
}
