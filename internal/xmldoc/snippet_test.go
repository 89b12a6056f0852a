package xmldoc

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// snippet is the rule Document.Snippet must reproduce byte for byte,
// kept verbatim as the oracle: fold the whole text to single spaces,
// then cut. Applied to TextContent(id) it reads the entire subtree.
func snippet(s string, max int) string {
	s = strings.Join(strings.Fields(s), " ")
	if len(s) <= max {
		return s
	}
	// Back the cut up to a rune boundary: s[:max] may split a multi-byte
	// UTF-8 sequence and emit an invalid string.
	for max > 0 && !utf8.RuneStart(s[max]) {
		max--
	}
	cut := s[:max]
	if i := strings.LastIndexByte(cut, ' '); i > max/2 {
		cut = cut[:i]
	}
	return cut + "…"
}

// checkSnippets asserts Snippet(id, max) equals the oracle on every node
// of d at every given max.
func checkSnippets(t testing.TB, d *Document, maxes ...int) {
	t.Helper()
	for id := NodeID(0); int(id) < d.Len(); id++ {
		for _, max := range maxes {
			if got, want := d.Snippet(id, max), snippet(d.TextContent(id), max); got != want {
				t.Fatalf("Snippet(%d, %d) = %q, want %q (text %q)", id, max, got, want, d.TextContent(id))
			}
		}
	}
}

// handmadeSnippetDocs returns documents built to put the cut on the
// awkward cases: multi-byte runes, U+0085 and U+00A0 whitespace,
// invalid UTF-8, and empty or whitespace-only text nodes.
func handmadeSnippetDocs() []*Document {
	var docs []*Document

	b := NewBuilder()
	b.Start("r")
	b.Text("aé日")
	b.Start("b")
	b.Text("ö 日本 x")
	b.End()
	b.Text(" \u00a0 ")
	b.Elem("c", "x\u0085y z\u00a0w")
	b.Text("\t\n")
	b.Elem("d", "€€€€ € longerword ab")
	b.Text("\xff\xfe q\xc3")
	b.End()
	docs = append(docs, b.MustDocument())

	// The builder drops empty text, so blank two text nodes by hand;
	// documents loaded from a snapshot can carry them.
	b = NewBuilder()
	b.Start("r")
	b.Text("gone")
	b.Elem("e", "word")
	b.Text("also gone")
	b.Elem("f", "tail text here")
	b.End()
	d := b.MustDocument()
	d.nodes[1].Text, d.nodes[4].Text = "", ""
	docs = append(docs, d)

	b = NewBuilder()
	b.Start("r")
	b.Text(" ")
	b.Elem("s", "\u00a0\u0085")
	b.Text("\n\t ")
	b.End()
	docs = append(docs, b.MustDocument())

	b = NewBuilder()
	b.Start("r")
	b.Text("the quick brown fox jumps over the lazy dog")
	b.Elem("s", "ünïcödé wörds ärë hérë")
	b.End()
	docs = append(docs, b.MustDocument())
	return docs
}

// textDoc returns <p>s</p>; its root's snippet is the cut of s.
func textDoc(s string) *Document {
	b := NewBuilder()
	b.Elem("p", s)
	return b.MustDocument()
}

func TestClip(t *testing.T) {
	if got := textDoc("short").Snippet(0, 90); got != "short" {
		t.Errorf("clip(short) = %q", got)
	}
	long := strings.Repeat("x", 120)
	if got := textDoc(long).Snippet(0, 90); len(got) <= 90 || !strings.HasSuffix(got, "…") {
		t.Errorf("clip(long) = %q", got)
	}
}

func TestSnippetTruncation(t *testing.T) {
	long := strings.Repeat("word ", 50)
	s := textDoc(long).Snippet(0, 40)
	if len(s) > 45 {
		t.Errorf("snippet too long: %q", s)
	}
	if !strings.HasSuffix(s, "…") {
		t.Errorf("no ellipsis: %q", s)
	}
	if got := textDoc("short").Snippet(0, 40); got != "short" {
		t.Errorf("short text mangled: %q", got)
	}
}
