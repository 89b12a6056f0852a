package xmldoc

import "testing"

// FuzzParseXML checks the XML front end never panics, that accepted
// documents round-trip through the serializer, and that every node's
// bounded snippet matches the cut of its whole text content.
func FuzzParseXML(f *testing.F) {
	seeds := []string{
		`<a/>`,
		`<a><b>text</b><c x="1"/></a>`,
		`<dealer><car><price>500</price></car></dealer>`,
		`<a>x &lt; y &amp; z</a>`,
		`<a xmlns:n="u"><n:b/></a>`,
		`<a><b></a></b>`, `<a>`, ``, `text only`, `<a><![CDATA[cd]]></a>`,
		`<a><!-- comment --><?pi data?><b/></a>`,
		"<a>\xff\xfe</a>",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		d, err := ParseString(src)
		if err != nil {
			return
		}
		if err := d.validate(); err != nil {
			t.Fatalf("accepted document invalid: %v\nsrc: %q", err, src)
		}
		checkSnippets(t, d, 90)
		d2, err := ParseString(d.XMLString())
		if err != nil {
			t.Fatalf("serializer output unparseable: %v\nsrc: %q\nout: %q", err, src, d.XMLString())
		}
		if d.Len() != d2.Len() {
			t.Fatalf("round trip changed node count: %d -> %d\nsrc: %q", d.Len(), d2.Len(), src)
		}
	})
}
