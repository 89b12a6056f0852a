package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// Mixed-workload draw: shares of PUTs and fan-outs, and the Zipf
// parameters over the request pool, P(rank k) ∝ (zipfV+k)^-zipfS. The
// offset zipfV keeps a handful of requests from taking most of the
// traffic, so the measured mix does not hinge on which few requests a
// seed happens to make popular.
const (
	putFrac    = 0.03
	fanoutFrac = 0.10
	zipfS      = 1.1
	zipfV      = 10
)

// op is one closed-loop operation: a search (req >= 0) or a PUT of hot
// document hot.
type op struct {
	req int
	hot int
}

// opSource yields a client's operations. Every stream is a function of
// the seed and the client number only.
type opSource func() op

// opSources builds one stream per client.
func opSources(in *input, seed int64, clients int) []opSource {
	out := make([]opSource, clients)
	if !in.mixed {
		for c := range out {
			r := rand.New(rand.NewSource(seed*1009 + int64(c)))
			order := r.Perm(len(in.requests))
			i := 0
			out[c] = func() op {
				o := op{req: order[i%len(order)]}
				i++
				return o
			}
		}
		return out
	}
	pr := rand.New(rand.NewSource(seed * 7877))
	single := rankOrder(pr, in.requests[:in.nSingle], func(r *server.SearchRequest) string { return r.Doc })
	fan := rankOrder(pr, in.requests[in.nSingle:], func(r *server.SearchRequest) string { return r.Query + "\x00" + r.ProfileName })
	for c := range out {
		r := rand.New(rand.NewSource(seed*1009 + int64(c)))
		zs := rand.NewZipf(r, zipfS, zipfV, uint64(len(single)-1))
		zf := rand.NewZipf(r, zipfS, zipfV, uint64(len(fan)-1))
		out[c] = func() op {
			u := r.Float64()
			switch {
			case u < putFrac:
				return op{req: -1, hot: r.Intn(len(in.hot))}
			case u < putFrac+fanoutFrac:
				return op{req: in.nSingle + fan[zf.Uint64()]}
			}
			return op{req: single[zs.Uint64()]}
		}
	}
	return out
}

// rankOrder maps Zipf ranks to request indexes: a seeded order within
// each group (by document, or by query and profile for fan-outs), with
// the groups dealt round-robin, so every group gets a like share of the
// popular ranks whatever the seed.
func rankOrder(r *rand.Rand, reqs []server.SearchRequest, group func(*server.SearchRequest) string) []int {
	byGroup := map[string][]int{}
	var keys []string
	for i := range reqs {
		k := group(&reqs[i])
		if byGroup[k] == nil {
			keys = append(keys, k)
		}
		byGroup[k] = append(byGroup[k], i)
	}
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys {
		g := byGroup[k]
		r.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
	}
	out := make([]int, 0, len(reqs))
	for len(out) < len(reqs) {
		for _, k := range keys {
			if g := byGroup[k]; len(g) > 0 {
				out = append(out, g[0])
				byGroup[k] = g[1:]
			}
		}
	}
	return out
}

// sample is one completed operation.
type sample struct {
	req        int // request index, or -1 for a PUT
	start, end time.Time
	status     int // 0: transport error
	body       []byte
	cache      string // X-Cache header
}

func (s *sample) ok() bool { return s.status/100 == 2 }

func (s *sample) ms() float64 { return float64(s.end.Sub(s.start).Nanoseconds()) / 1e6 }

// putLog serializes the PUTs of each hot document and keeps their
// history, which verification needs to know the states a search could
// have seen.
type putLog struct {
	mu   []sync.Mutex // per hot document: its PUTs never overlap
	cur  []int        // per hot document: the version its last PUT installed
	hmu  sync.Mutex
	hist [][]putEvent
}

func newPutLog(hot int) *putLog {
	return &putLog{mu: make([]sync.Mutex, hot), cur: make([]int, hot), hist: make([][]putEvent, hot)}
}

// swap installs the other version of hot document h through do, which
// performs the PUT of version `to` and returns its sample.
func (l *putLog) swap(h int, do func(to int) sample) sample {
	l.mu[h].Lock()
	defer l.mu[h].Unlock()
	to := 1 - l.cur[h]
	s := do(to)
	// Record even a failed PUT: its version may or may not have landed,
	// and verification must accept either.
	l.hmu.Lock()
	l.hist[h] = append(l.hist[h], putEvent{to: to, start: s.start, end: s.end})
	l.hmu.Unlock()
	if s.ok() {
		l.cur[h] = to
	}
	return s
}

// history returns a copy of the PUT history.
func (l *putLog) history() [][]putEvent {
	l.hmu.Lock()
	defer l.hmu.Unlock()
	out := make([][]putEvent, len(l.hist))
	for h := range l.hist {
		out[h] = append([]putEvent(nil), l.hist[h]...)
	}
	return out
}

// driver sends a workload's operations to one daemon over HTTP.
type driver struct {
	d      *daemon
	in     *input
	bodies [][]byte // marshaled distinct requests
	puts   *putLog
}

func newDriver(d *daemon, in *input) *driver {
	return &driver{d: d, in: in, bodies: requestBodies(in), puts: newPutLog(len(in.hot))}
}

func requestBodies(in *input) [][]byte {
	var out [][]byte
	for i := range in.requests {
		b, err := json.Marshal(&in.requests[i])
		if err != nil {
			panic(err) // SearchRequest holds only strings, ints and bools
		}
		out = append(out, b)
	}
	return out
}

func (dr *driver) search(ctx context.Context, i int) sample {
	s := sample{req: i, start: time.Now()}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, dr.d.base+"/search", bytes.NewReader(dr.bodies[i]))
	if err == nil {
		var resp *http.Response
		if resp, err = dr.d.client.Do(req); err == nil {
			s.body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil {
				s.status = resp.StatusCode
				s.cache = resp.Header.Get("X-Cache")
			}
		}
	}
	s.end = time.Now()
	return s
}

// put swaps hot document h to its other version.
func (dr *driver) put(ctx context.Context, h int) sample {
	doc := &dr.in.docs[dr.in.hot[h]]
	return dr.puts.swap(h, func(to int) sample {
		s := sample{req: -1, start: time.Now()}
		status, body, err := dr.d.do(ctx, http.MethodPut, "/docs/"+doc.name, doc.versions[to])
		s.end = time.Now()
		if err == nil {
			s.status, s.body = status, body
		}
		return s
	})
}

// warm sends every distinct request once, over `clients` concurrent
// callers, in index order.
func (dr *driver) warm(ctx context.Context, clients int) []sample {
	return eachOnce(len(dr.in.requests), clients, func(i int) sample { return dr.search(ctx, i) })
}

// eachOnce runs do(0..n-1) over `clients` goroutines.
func eachOnce(n, clients int, do func(i int) sample) []sample {
	out := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				out[i] = do(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// run drives the closed loop over HTTP.
func (dr *driver) run(ctx context.Context, sources []opSource, dur time.Duration) ([]sample, time.Duration) {
	return closedLoop(sources, dur, func(o op) sample {
		if o.req < 0 {
			return dr.put(ctx, o.hot)
		}
		return dr.search(ctx, o.req)
	})
}

// closedLoop runs one client per source: each issues its next operation
// as soon as the previous one completes, until dur is up.
func closedLoop(sources []opSource, dur time.Duration, do func(op) sample) ([]sample, time.Duration) {
	per := make([][]sample, len(sources))
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := range sources {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				per[c] = append(per[c], do(sources[c]()))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all, elapsed
}

// probe PUTs the side document n times, one at a time: the write path
// on a workload whose traffic has no writes.
func (dr *driver) probe(ctx context.Context, doc []byte, n int) []sample {
	var out []sample
	for i := 0; i < n; i++ {
		s := sample{req: -1, start: time.Now()}
		status, body, err := dr.d.do(ctx, http.MethodPut, "/docs/probe", doc)
		s.end = time.Now()
		if err == nil {
			s.status, s.body = status, body
		}
		out = append(out, s)
	}
	return out
}

// verify checks every successful search against its references in the
// states reachable while it ran; it returns the mismatches.
func verify(w *world, hist [][]putEvent, samples []sample) []string {
	var bad []string
	for i := range samples {
		s := &samples[i]
		if s.req < 0 || !s.ok() {
			continue
		}
		got, err := bodyDigest(s.body)
		if err != nil {
			bad = append(bad, fmt.Sprintf("%v: %s", err, describe(&w.in.requests[s.req])))
			continue
		}
		if !w.check(s.req, got, reachable(hist, s.start, s.end)) {
			bad = append(bad, fmt.Sprintf("answer mismatch: %s", describe(&w.in.requests[s.req])))
		}
	}
	return bad
}
