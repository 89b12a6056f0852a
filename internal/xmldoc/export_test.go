package xmldoc

// Hooks for package xmldoc_test, whose tests import xmark (which
// imports xmldoc) and so cannot live inside this package.
var (
	CheckSnippets       = checkSnippets
	HandmadeSnippetDocs = handmadeSnippetDocs
)
