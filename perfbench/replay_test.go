package main

import "testing"

func TestSnippetFold(t *testing.T) {
	if got := snippet("  a\n b\tc  ", 90); got != "a b c" {
		t.Errorf("snippet = %q", got)
	}
	long := "alpha beta gamma delta epsilon zeta eta theta"
	if got := snippet(long, 20); got != "alpha beta gamma…" {
		t.Errorf("snippet cut = %q", got)
	}
}
