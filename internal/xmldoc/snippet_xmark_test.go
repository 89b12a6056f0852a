package xmldoc_test

import (
	"testing"

	"repro/internal/xmark"
	"repro/internal/xmldoc"
)

// TestSnippetMatchesTextContent pins Document.Snippet byte-identical to
// cutting the whole folded TextContent, on every node of generated and
// hand-made documents.
func TestSnippetMatchesTextContent(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		d := xmark.GenerateSized(xmark.Config{Seed: seed}, 64*1024)
		// 300 outgrows Snippet's stack buffer.
		xmldoc.CheckSnippets(t, d, 1, 5, 40, 90, 300)
	}
	for _, d := range xmldoc.HandmadeSnippetDocs() {
		for max := 0; max <= 20; max++ {
			xmldoc.CheckSnippets(t, d, max)
		}
	}
}
