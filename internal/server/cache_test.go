package server

import (
	"fmt"
	"testing"
)

// TestOutcomeString pins the X-Cache header spellings (upper-cased by
// the handler).
func TestOutcomeString(t *testing.T) {
	for out, want := range map[Outcome]string{Miss: "miss", Hit: "hit", Coalesced: "coalesced"} {
		if got := out.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", out, got, want)
		}
	}
	if got := fmt.Sprint(Outcome(99)); got == "" {
		t.Error("unknown outcome prints empty")
	}
}
