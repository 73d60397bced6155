package lint_test

import (
	"path/filepath"
	"testing"

	"fantasticjoules/internal/lint"
	"fantasticjoules/internal/lint/loader"
)

// BenchmarkJouleslint times a full-suite run over the entire repository —
// load, shared facts (call graph, pool getters, epoch info), and all
// seven analyzers. This is what CI's lint gate pays on every push; the
// recording in BENCH_<n>.json keeps the cost visible as the tree and the
// analyzer suite grow.
func BenchmarkJouleslint(b *testing.B) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		findings, err := lint.Run(loader.Config{Dir: root}, lint.Analyzers(), "./...")
		if err != nil {
			b.Fatal(err)
		}
		if len(findings) != 0 {
			b.Fatalf("tree is not lint-clean: %v", findings)
		}
	}
}
