package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
)

// TestStatszCacheWireShape pins the /statsz key sets of the result
// cache and analysis cache blocks. Decoding into map[string]any, not
// the Go structs, catches a renamed or added key that a struct
// round-trip would pass silently.
func TestStatszCacheWireShape(t *testing.T) {
	s := New(Config{})
	t.Cleanup(s.Close)
	if err := s.AddXML("cars", carsXML); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if code, _, body := post(t, ts, "/search", SearchRequest{Doc: "cars", Query: carsQuery, Profile: carsProfile}); code != http.StatusOK {
		t.Fatalf("search: %d %s", code, body)
	}

	_, body := get(t, ts, "/statsz")
	var st map[string]any
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	for block, want := range map[string][]string{
		"cache":    {"capacity", "coalesced", "entries", "evictions", "hits", "invalidations", "misses"},
		"analysis": {"Capacity", "Coalesced", "Diagnostics", "Entries", "Evictions", "Hits", "Misses"},
	} {
		m, ok := st[block].(map[string]any)
		if !ok {
			t.Fatalf("/statsz %q block missing or not an object: %s", block, body)
		}
		var got []string
		for k := range m {
			got = append(got, k)
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("/statsz %q keys = %v, want %v", block, got, want)
		}
	}
}
