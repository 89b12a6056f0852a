package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"unicode"

	"repro/internal/engine"
	"repro/internal/inex"
	"repro/internal/profile"
	"repro/internal/server"
	"repro/internal/tpq"
	"repro/internal/workload"
	"repro/internal/xmark"
	"repro/internal/xmldoc"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlFig5    = "fig5-personalized"
	wlKeyword = "keyword-snippets"
	wlMixed   = "corpus-mixed-rw"
)

var workloadNames = []string{wlFig5, wlKeyword, wlMixed}

// Document sizes. fig5Bytes is the paper's 5.7M point, above
// plan.DefaultParallelMinNodes; keywordBytes (~48k nodes) is below it.
const (
	fig5Bytes    = 5*1024*1024 + 700*1024
	keywordBytes = 1024 * 1024
	mixedBytes   = 256 * 1024
	mixedXMark   = 8
	// mixedHot is how many of the mixed corpus's XMark documents PUTs
	// swap between two versions. Keeping it small keeps the set of
	// corpus states a fan-out can observe (2^mixedHot) enumerable, so
	// every fan-out answer is checked against a precomputed reference.
	mixedHot = 2
	// Write-probe PUTs on the read-only workloads: a side document of
	// the mixed workload's size, so put_* means the same write on every
	// deployment shape.
	probePuts  = 200
	probeBytes = mixedBytes
	// keywordWords is how many vocabulary words keyword-snippets draws;
	// the more it draws, the less its cost depends on the seed's draw.
	keywordWords = 32
)

// docSpec is one document the daemon serves. versions[0] is loaded at
// start; PUTs swap hot documents between versions[0] and versions[1].
type docSpec struct {
	name     string
	versions [][]byte
}

type namedProfile struct{ name, src string }

// input is everything one workload sends to the daemon, generated from
// the seed alone.
type input struct {
	docs     []docSpec
	hot      []int // indexes into docs of the documents PUTs swap
	profiles []namedProfile
	// requests are the distinct searches. For the mixed workload,
	// single-document requests come first (nSingle of them), then the
	// fan-outs.
	requests []server.SearchRequest
	nSingle  int
	shards   int
	mixed    bool
	probe    []byte // write-probe document (non-mixed workloads)
}

func serialize(d *xmldoc.Document) []byte {
	var b bytes.Buffer
	if err := d.WriteXML(&b, ""); err != nil {
		panic(err) // writes to a bytes.Buffer cannot fail
	}
	return b.Bytes()
}

// fig5QuerySrc is workload.Fig5Query's source; checkSources pins them
// together.
const fig5QuerySrc = `//person(*)[.//business[. ftcontains "Yes"]]`

var fig5KORPhrases = []string{"male", "United States", "College", "Phoenix"}

// fig5ProfileSrc is the DSL text of workload.Fig5Profile(kors): the
// daemon takes profiles as text, the repo builds them as values.
func fig5ProfileSrc(kors int) string {
	var sb strings.Builder
	for i := 0; i < kors; i++ {
		fmt.Fprintf(&sb, "kor pi%d priority %d: x.tag = person & y.tag = person & ftcontains(x, %q) => x < y\n",
			i+1, i+1, fig5KORPhrases[i])
	}
	sb.WriteString("vor pi5: x.tag = person & y.tag = person & x.age = 33 & y.age != 33 => x < y\n")
	sb.WriteString("rank K,V,S\n")
	return sb.String()
}

// extraSrc holds the DSL of workload.ExtraQueries, by name.
var extraSrc = map[string][2]string{
	"Q2-person-address": {`//person(*)[./address[./country[. ftcontains "United States"]]]`, `
kor q2k1 priority 1: x.tag = person & y.tag = person & ftcontains(x, "male") => x < y
kor q2k2 priority 2: x.tag = person & y.tag = person & ftcontains(x, "College") => x < y
kor q2k3 priority 3: x.tag = person & y.tag = person & ftcontains(x, "Phoenix") => x < y
kor q2k4 priority 4: x.tag = person & y.tag = person & ftcontains(x, "Yes") => x < y
rank K,V,S
`},
	"Q3-items": {`//item(*)[.//text[. ftcontains "honour"]]`, `
vor q3v: x.tag = item & y.tag = item & x.quantity > y.quantity => x < y
kor q3k1 priority 1: x.tag = item & y.tag = item & ftcontains(x, "fortune") => x < y
kor q3k2 priority 2: x.tag = item & y.tag = item & ftcontains(x, "sword") => x < y
kor q3k3 priority 3: x.tag = item & y.tag = item & ftcontains(x, "crown") => x < y
kor q3k4 priority 4: x.tag = item & y.tag = item & ftcontains(x, "castle") => x < y
rank K,V,S
`},
}

// topicSrc is the DSL of inex.TopicQuery and inex.TopicProfile.
func topicSrc(spec inex.Spec, typ string) (query, prof string) {
	if spec.Author != "" {
		query = fmt.Sprintf(`//article[about(.//au, %q)]//%s[about(., %q)]`, spec.Author, typ, spec.Phrase)
	} else {
		query = fmt.Sprintf(`//article//%s[about(., %q)]`, typ, spec.Phrase)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "sr relax priority 1: if ftcontains(%s, %q) then remove ftcontains(%s, %q)\n",
		typ, spec.Phrase, typ, spec.Phrase)
	var fts []string
	for _, n := range spec.Narrative {
		fts = append(fts, fmt.Sprintf("ftcontains(x, %q)", n))
	}
	fmt.Fprintf(&sb, "kor narrative: x.tag = %s & y.tag = %s & %s => x < y\n", typ, typ, strings.Join(fts, " & "))
	sb.WriteString("rank K,V,S\n")
	return query, sb.String()
}

// checkSources fails when the benchmark's DSL text has drifted from the
// repo's own workload constructors: the daemon must see exactly the
// paper's queries and profiles.
func checkSources() error {
	same := func(what, src string, want *profile.Profile) error {
		p, err := profile.ParseProfile(src)
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		if engine.CanonicalProfile(p) != engine.CanonicalProfile(want) {
			return fmt.Errorf("%s: benchmark profile text differs from the repo's", what)
		}
		return nil
	}
	sameQ := func(what, src string, want *tpq.Query) error {
		q, err := tpq.Parse(src)
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		if q.String() != want.String() {
			return fmt.Errorf("%s: benchmark query text differs from the repo's", what)
		}
		return nil
	}
	if err := sameQ("fig5 query", fig5QuerySrc, workload.Fig5Query()); err != nil {
		return err
	}
	for k := 1; k <= 4; k++ {
		if err := same(fmt.Sprintf("fig5 profile kors=%d", k), fig5ProfileSrc(k), workload.Fig5Profile(k)); err != nil {
			return err
		}
	}
	for _, x := range workload.ExtraQueries() {
		src, ok := extraSrc[x.Name]
		if !ok {
			return fmt.Errorf("extra query %s has no benchmark text", x.Name)
		}
		if err := sameQ(x.Name, src[0], x.Query); err != nil {
			return err
		}
		if err := same(x.Name, src[1], x.Profile); err != nil {
			return err
		}
	}
	for _, spec := range inex.Topics() {
		for _, tp := range spec.Types {
			q, p := topicSrc(spec, tp.Tag)
			what := fmt.Sprintf("topic %d/%s", spec.ID, tp.Tag)
			if err := sameQ(what, q, inex.TopicQuery(spec, tp.Tag)); err != nil {
				return err
			}
			if err := same(what, p, inex.TopicProfile(spec, tp.Tag)); err != nil {
				return err
			}
		}
	}
	return nil
}

var strategies = []string{"naive", "interleave", "interleave-sort", "push"}

// buildInput generates a workload's documents, profiles and distinct
// requests from the seed.
func buildInput(name string, seed int64) (*input, error) {
	switch name {
	case wlFig5:
		return fig5Input(seed), nil
	case wlKeyword:
		return keywordInput(seed), nil
	case wlMixed:
		return mixedInput(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func probeDoc(seed int64) []byte {
	return serialize(xmark.GenerateSized(xmark.Config{Seed: seed + 7919}, probeBytes))
}

// fig5Input: the Fig. 5 query under Fig5Profile(1..4), every Fig. 7
// plan, both access paths — 32 distinct requests.
func fig5Input(seed int64) *input {
	in := &input{probe: probeDoc(seed)}
	in.docs = []docSpec{{name: "xmark", versions: [][]byte{serialize(xmark.GenerateSized(xmark.Config{Seed: seed}, fig5Bytes))}}}
	for kors := 1; kors <= 4; kors++ {
		for _, s := range strategies {
			for _, access := range []string{"scan", "twigjoin"} {
				in.requests = append(in.requests, server.SearchRequest{
					Doc: "xmark", Query: fig5QuerySrc, Profile: fig5ProfileSrc(kors),
					K: 10, Strategy: s, Access: access, NoCache: true,
				})
			}
		}
	}
	in.nSingle = len(in.requests)
	return in
}

// keywordInput: content-only single-word searches over a 1M document,
// words drawn by seed from the vocabulary the generator wrote.
func keywordInput(seed int64) *input {
	d := xmark.GenerateSized(xmark.Config{Seed: seed}, keywordBytes)
	in := &input{probe: probeDoc(seed)}
	in.docs = []docSpec{{name: "xmark", versions: [][]byte{serialize(d)}}}
	words := vocabulary(d, 4, 100)
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(words), func(i, j int) { words[i], words[j] = words[j], words[i] })
	if len(words) > keywordWords {
		words = words[:keywordWords]
	}
	sort.Strings(words)
	for _, w := range words {
		in.requests = append(in.requests, server.SearchRequest{Doc: "xmark", Keywords: w, K: 10, NoCache: true})
	}
	in.nSingle = len(in.requests)
	return in
}

// vocabulary returns the lower-case words of at least minLen letters
// that occur at least minCount times in d's text, sorted.
func vocabulary(d *xmldoc.Document, minLen, minCount int) []string {
	counts := map[string]int{}
	for id := 0; id < d.Len(); id++ {
		if d.Kind(xmldoc.NodeID(id)) != xmldoc.Text {
			continue
		}
		for _, w := range strings.FieldsFunc(d.Node(xmldoc.NodeID(id)).Text, func(r rune) bool { return !unicode.IsLetter(r) }) {
			if len(w) >= minLen {
				counts[strings.ToLower(w)]++
			}
		}
	}
	var out []string
	for w, n := range counts {
		if n >= minCount {
			out = append(out, w)
		}
	}
	sort.Strings(out)
	return out
}

// mixedInput: 8 XMark documents plus the Table 1 INEX collections,
// named profiles, and a request pool several times the result cache.
func mixedInput(seed int64) *input {
	in := &input{shards: 2, mixed: true}
	ks := []int{5, 10, 15, 20, 25}

	type qp struct{ query, profile string }
	xmarkQPs := []qp{{fig5QuerySrc, ""}}
	for k := 1; k <= 4; k++ {
		name := fmt.Sprintf("fig5-k%d", k)
		in.profiles = append(in.profiles, namedProfile{name, fig5ProfileSrc(k)})
		xmarkQPs = append(xmarkQPs, qp{fig5QuerySrc, name})
	}
	for _, x := range workload.ExtraQueries() {
		in.profiles = append(in.profiles, namedProfile{x.Name, extraSrc[x.Name][1]})
		xmarkQPs = append(xmarkQPs, qp{extraSrc[x.Name][0], x.Name})
	}

	for i := 0; i < mixedXMark; i++ {
		ds := docSpec{name: fmt.Sprintf("xm%d", i)}
		ds.versions = append(ds.versions, serialize(xmark.GenerateSized(xmark.Config{Seed: seed*100 + int64(i)}, mixedBytes)))
		if i < mixedHot {
			ds.versions = append(ds.versions, serialize(xmark.GenerateSized(xmark.Config{Seed: seed*100 + 50 + int64(i)}, mixedBytes)))
			in.hot = append(in.hot, i)
		}
		in.docs = append(in.docs, ds)
		for _, x := range xmarkQPs {
			for _, s := range strategies {
				for _, k := range ks {
					in.requests = append(in.requests, server.SearchRequest{Doc: ds.name, Query: x.query, ProfileName: x.profile, K: k, Strategy: s})
				}
			}
		}
	}
	for _, spec := range inex.Topics() {
		d, _ := inex.BuildCollection(spec, seed)
		ds := docSpec{name: fmt.Sprintf("inex%d", spec.ID), versions: [][]byte{serialize(d)}}
		in.docs = append(in.docs, ds)
		for _, tp := range spec.Types {
			q, p := topicSrc(spec, tp.Tag)
			pname := fmt.Sprintf("topic%d-%s", spec.ID, tp.Tag)
			in.profiles = append(in.profiles, namedProfile{pname, p})
			for _, s := range strategies {
				for _, k := range ks {
					in.requests = append(in.requests, server.SearchRequest{Doc: ds.name, Query: q, ProfileName: pname, K: k, Strategy: s})
				}
			}
		}
	}
	in.nSingle = len(in.requests)
	for _, x := range xmarkQPs {
		for _, s := range []string{"naive", "push"} {
			for _, k := range []int{10, 20} {
				in.requests = append(in.requests, server.SearchRequest{Doc: "*", Query: x.query, ProfileName: x.profile, K: k, Strategy: s})
			}
		}
	}
	return in
}
