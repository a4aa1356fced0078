package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"time"

	"fdlsp/internal/coloring"
	"fdlsp/internal/dynamic"
	"fdlsp/internal/graph"
	"fdlsp/internal/httpapi"
	"fdlsp/internal/incr"
	"fdlsp/internal/obs"
)

// The session-churn workload is fdlspd's incremental rescheduling service
// under one closed-loop client on one keep-alive loopback connection: a
// network controller needs each recolor set before it sends the next
// delta. Per pass, for each G(n, 3n) with n in sessionSizes, the client
// creates a session, streams a seeded density-stable sequence of 1–4-event
// link-flip batches at it — with a GET of the session every getEvery updates
// and a /metrics scrape every scrapeEvery — and deletes it. The stream never
// isolates a node. Every pass replays the same streams on fresh sessions.
var sessionSizes = []int{256, 1024, 4096}

const (
	batchesPerSession = 350
	maxBatchEvents    = 4
	getEvery          = 10
	scrapeEvery       = 100
	sessionSetups     = 3
	sessionSalt       = 7_919
)

// sessionInput is one session's generated inputs.
type sessionInput struct {
	n       int
	g       *graph.Graph
	create  []byte              // POST /v1/session body
	initial coloring.Assignment // the greedy schedule the session must open with
	batches [][]dynamic.Event   // the update stream
	bodies  [][]byte            // its request bodies
}

// updateResp mirrors the JSON of POST /v1/session/{id}/update.
type updateResp struct {
	Events           int            `json:"events"`
	DirtyArcs        int            `json:"dirty_arcs"`
	Rounds           int            `json:"rounds"`
	Recolored        []incr.ArcSlot `json:"recolored"`
	Dropped          []incr.ArcSlot `json:"dropped"`
	Slots            int            `json:"slots"`
	CachePatches     uint64         `json:"cache_patches"`
	CachePatchedArcs uint64         `json:"cache_patched_arcs"`
}

// infoResp mirrors the JSON of POST /v1/session and GET /v1/session/{id}.
type infoResp struct {
	ID      string `json:"id"`
	Nodes   int    `json:"nodes"`
	Arcs    int    `json:"arcs"`
	Slots   int    `json:"slots"`
	Updates int64  `json:"updates"`
}

// sessionSetup generates every session's inputs from the seed and reports
// how long graph generation alone took.
func sessionSetup(seed int64) ([]*sessionInput, time.Duration, error) {
	var inputs []*sessionInput
	var gen time.Duration
	for _, n := range sessionSizes {
		rng := rand.New(rand.NewSource(seed + int64(n)*sessionSalt))
		t0 := now()
		g := graph.ConnectedGNM(n, 3*n, rng)
		gen += now() - t0
		create, err := json.Marshal(map[string]any{"graph": g, "algorithm": "greedy", "seed": seed})
		if err != nil {
			return nil, 0, err
		}
		in := &sessionInput{n: n, g: g, create: create, initial: coloring.Greedy(g.Clone(), nil)}
		in.batches = churnStream(g, batchesPerSession, rng)
		for _, b := range in.batches {
			body, err := json.Marshal(map[string]any{"events": b})
			if err != nil {
				return nil, 0, err
			}
			in.bodies = append(in.bodies, body)
		}
		inputs = append(inputs, in)
	}
	return inputs, gen, nil
}

// churnStream generates link-flip batches of 1–maxBatchEvents events that
// hold the edge count near its initial value: each event removes an edge when
// the graph is above it, adds one when below, and flips a coin at it.
// Removals only take edges whose endpoints both keep another link, so no
// node is ever isolated.
func churnStream(g *graph.Graph, batches int, rng *rand.Rand) [][]dynamic.Event {
	sh := g.Clone()
	target := g.M()
	edges := sh.Edges()
	pos := make(map[graph.Edge]int, len(edges))
	for i, e := range edges {
		pos[e] = i
	}
	remove := func(e graph.Edge) {
		i := pos[e]
		last := edges[len(edges)-1]
		edges[i] = last
		pos[last] = i
		edges = edges[:len(edges)-1]
		delete(pos, e)
		sh.RemoveEdge(e.U, e.V)
	}
	add := func(e graph.Edge) {
		pos[e] = len(edges)
		edges = append(edges, e)
		sh.AddEdge(e.U, e.V)
	}
	out := make([][]dynamic.Event, 0, batches)
	for b := 0; b < batches; b++ {
		k := 1 + rng.Intn(maxBatchEvents)
		batch := make([]dynamic.Event, 0, k)
		for len(batch) < k {
			down := sh.M() > target || (sh.M() == target && rng.Intn(2) == 0)
			if down {
				e := edges[rng.Intn(len(edges))]
				if sh.Degree(e.U) < 2 || sh.Degree(e.V) < 2 {
					continue
				}
				remove(e)
				batch = append(batch, dynamic.Event{Kind: dynamic.LinkDown, U: e.U, V: e.V})
				continue
			}
			u, v := rng.Intn(sh.N()), rng.Intn(sh.N())
			if u == v || sh.HasEdge(u, v) {
				continue
			}
			e := graph.NormEdge(u, v)
			add(e)
			batch = append(batch, dynamic.Event{Kind: dynamic.LinkUp, U: e.U, V: e.V})
		}
		out = append(out, batch)
	}
	return out
}

// server is an in-process fdlspd handler on a loopback listener.
type server struct {
	srv  *http.Server
	done chan error
	base string
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:  &http.Server{Handler: httpapi.NewMuxWith(obs.NewRegistry())},
		done: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the server and waits for its serve loop to return.
func (s *server) close() error {
	err := s.srv.Close()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// client is the closed-loop client: one keep-alive connection, one request
// in flight.
type client struct {
	hc   *http.Client
	tr   *http.Transport
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, tr: tr, base: base}
}

// do sends one request and reads the whole response. The timing covers
// sending the request through reading the last response byte; its CPU part
// is the whole process's, server included.
func (c *client) do(method, path string, body []byte) ([]byte, clocks, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, clocks{}, err
	}
	t0 := readClocks()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, t0.since(), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := t0.since()
	if err != nil {
		return nil, d, err
	}
	if resp.StatusCode/100 != 2 {
		return data, d, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, d, nil
}

// sessionPass is one pass's client-side measurements.
type sessionPass struct {
	updates, creates, gets, scrapes []time.Duration // wall time
	updatesCPU                      []time.Duration
	total, cpuTotal                 time.Duration
	frames, messages, rounds        int64
	reqBytes, respBytes             int64
	hashes                          []uint64       // per session: hash of its update responses in order
	transcripts                     [][]updateResp // per session, in order
	series                          int            // /metrics sample lines after the last DELETE
	rt                              goDelta
}

// sessionRun runs one pass: every session's lifecycle in turn. A traced pass
// records a span per request and per client-side oracle step.
func sessionRun(c *client, rep *report, inputs []*sessionInput, sp *spans) sessionPass {
	var p sessionPass
	before := readGoStats()
	t0 := readClocks()
	for _, in := range inputs {
		h, tr := sessionLifecycle(c, rep, in, sp, &p)
		p.hashes = append(p.hashes, h)
		p.transcripts = append(p.transcripts, tr)
	}
	elapsed := t0.since()
	p.total, p.cpuTotal = elapsed.wall, elapsed.cpu
	p.rt = before.to(readGoStats())
	op := sp.nextOp()
	s := sp.begin(op, -1, "obs.scrape")
	data, _, err := c.do(http.MethodGet, "/metrics", nil)
	sp.end(s)
	rep.op(err == nil, "final scrape: %v", err)
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) > 0 && line[0] != '#' {
			p.series++
		}
	}
	return p
}

// sessionLifecycle creates one session, streams its batches while keeping a
// shadow schedule from the responses' deltas, and deletes it. At DELETE the
// shadow schedule must verify clean on the shadow graph with the frame
// length the last response reported.
func sessionLifecycle(c *client, rep *report, in *sessionInput, sp *spans, p *sessionPass) (uint64, []updateResp) {
	op := sp.nextOp()
	root := sp.begin(op, -1, fmt.Sprintf("session.n%d", in.n))
	defer sp.end(root)
	s := sp.begin(op, root, "httpapi.create")
	data, d, err := c.do(http.MethodPost, "/v1/session", in.create)
	sp.end(s)
	var info infoResp
	if err == nil {
		err = json.Unmarshal(data, &info)
	}
	if err == nil && (info.Slots != in.initial.NumColors() || info.Nodes != in.n || info.Arcs != 2*in.g.M()) {
		err = fmt.Errorf("create answered %+v, want %d nodes, %d arcs, %d slots", info, in.n, 2*in.g.M(), in.initial.NumColors())
	}
	rep.op(err == nil, "n=%d create: %v", in.n, err)
	if err != nil {
		return 0, nil
	}
	p.creates = append(p.creates, d.wall)
	id := info.ID
	shadowG := in.g.Clone()
	shadow := in.initial.Clone()
	slots := info.Slots
	hash := fnv.New64a()
	transcript := make([]updateResp, 0, len(in.bodies))
	for i, body := range in.bodies {
		s := sp.begin(op, root, "httpapi.update")
		data, d, err := c.do(http.MethodPost, "/v1/session/"+id+"/update", body)
		sp.end(s)
		var ur updateResp
		if err == nil {
			err = json.Unmarshal(data, &ur)
		}
		if err == nil {
			o := sp.begin(op, root, "client.shadow")
			err = applyDelta(shadowG, shadow, in.batches[i], ur)
			sp.end(o)
		}
		rep.op(err == nil, "n=%d update %d: %v", in.n, i, err)
		if err != nil {
			return 0, nil
		}
		p.updates = append(p.updates, d.wall)
		p.updatesCPU = append(p.updatesCPU, d.cpu)
		p.reqBytes += int64(len(body))
		p.respBytes += int64(len(data))
		p.messages += int64(len(ur.Recolored) + len(ur.Dropped))
		p.rounds += int64(ur.Rounds)
		hash.Write(data)
		transcript = append(transcript, ur)
		slots = ur.Slots
		if (i+1)%getEvery == 0 {
			s := sp.begin(op, root, "httpapi.get")
			data, d, err := c.do(http.MethodGet, "/v1/session/"+id, nil)
			sp.end(s)
			var got infoResp
			if err == nil {
				err = json.Unmarshal(data, &got)
			}
			if err == nil && (got.Updates != int64(i+1) || got.Slots != slots) {
				err = fmt.Errorf("read %d updates and %d slots, want %d and %d", got.Updates, got.Slots, i+1, slots)
			}
			rep.op(err == nil, "n=%d get: %v", in.n, err)
			p.gets = append(p.gets, d.wall)
		}
		if (i+1)%scrapeEvery == 0 {
			s := sp.begin(op, root, "obs.scrape")
			_, d, err := c.do(http.MethodGet, "/metrics", nil)
			sp.end(s)
			rep.op(err == nil, "scrape: %v", err)
			p.scrapes = append(p.scrapes, d.wall)
		}
	}
	s = sp.begin(op, root, "httpapi.delete")
	_, _, err = c.do(http.MethodDelete, "/v1/session/"+id, nil)
	sp.end(s)
	rep.op(err == nil, "n=%d delete: %v", in.n, err)
	o := sp.begin(op, root, "coloring.Verify")
	viols := coloring.Verify(shadowG, shadow)
	sp.end(o)
	switch {
	case len(viols) > 0:
		rep.fail("n=%d: shadow schedule has %d conflicts, first %v", in.n, len(viols), viols[0])
	case !shadow.Complete(shadowG) || len(shadow) != 2*shadowG.M():
		rep.fail("n=%d: shadow schedule covers %d arcs, topology has %d", in.n, len(shadow), 2*shadowG.M())
	case shadow.NumColors() != slots:
		rep.fail("n=%d: shadow frame is %d slots, the last response said %d", in.n, shadow.NumColors(), slots)
	}
	p.frames += int64(slots)
	return hash.Sum64(), transcript
}

// applyDelta applies one batch to the shadow graph and one response's delta
// to the shadow schedule. Every dropped arc must be a link the batch removed,
// freeing the slot the shadow holds for it.
func applyDelta(g *graph.Graph, as coloring.Assignment, batch []dynamic.Event, ur updateResp) error {
	for _, ev := range batch {
		switch ev.Kind {
		case dynamic.LinkUp:
			g.AddEdge(ev.U, ev.V)
		case dynamic.LinkDown:
			g.RemoveEdge(ev.U, ev.V)
		}
	}
	if ur.Events != len(batch) {
		return fmt.Errorf("response counts %d events, batch has %d", ur.Events, len(batch))
	}
	for _, d := range ur.Dropped {
		a := graph.Arc{From: d.From, To: d.To}
		if g.HasEdge(a.From, a.To) {
			return fmt.Errorf("dropped arc %v is still a link", a)
		}
		if as[a] != d.Slot {
			return fmt.Errorf("dropped arc %v freed slot %d, shadow holds %d", a, d.Slot, as[a])
		}
		delete(as, a)
	}
	for _, r := range ur.Recolored {
		as[graph.Arc{From: r.From, To: r.To}] = r.Slot
	}
	return nil
}

// checkSessionRepeat fails a pass whose responses differ from the first
// pass's — sessions are deterministic per stream — or that leaves more
// /metrics series behind: DELETE must drop a session's series.
func checkSessionRepeat(rep *report, first, p sessionPass) {
	for i := range p.hashes {
		if i < len(first.hashes) && p.hashes[i] != first.hashes[i] {
			rep.fail("session %d: update responses differ from the first pass's", i)
		}
	}
	if p.series != first.series {
		rep.fail("/metrics holds %d series after the pass's last DELETE, %d after the first pass's", p.series, first.series)
	}
}

// setupSession generates the inputs and starts the server sessionSetups
// times, keeping the last, and reports the median set-up CPU time and graph
// generation wall time.
func setupSession(seed int64) ([]*sessionInput, *server, float64, float64, error) {
	var inputs []*sessionInput
	var srv *server
	var setup, gen []float64
	for i := 0; i < sessionSetups; i++ {
		if srv != nil {
			if err := srv.close(); err != nil {
				return nil, nil, 0, 0, err
			}
		}
		t0 := readClocks()
		var g time.Duration
		var err error
		inputs, g, err = sessionSetup(seed)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		if srv, err = startServer(); err != nil {
			return nil, nil, 0, 0, err
		}
		setup = append(setup, seconds(t0.since().cpu))
		gen = append(gen, seconds(g))
	}
	return inputs, srv, median(setup), median(gen), nil
}

func runSession(cfg config, rep *report) (err error) {
	inputs, srv, setupS, genS, err := setupSession(cfg.seed)
	if err != nil {
		return err
	}
	c := newClient(srv.base)
	defer func() {
		c.tr.CloseIdleConnections()
		if cerr := srv.close(); err == nil {
			err = cerr
		}
	}()
	if cfg.trace {
		return tracedSession(cfg, rep, c, inputs, genS)
	}
	var passes []sessionPass
	start := now()
	for len(passes) == 0 || now()-start < cfg.seconds {
		p := sessionRun(c, rep, inputs, nil)
		if len(passes) > 0 {
			checkSessionRepeat(rep, passes[0], p)
		}
		passes = append(passes, p)
	}
	// The tail is taken per pass: each pass's first updates pay the
	// sessions' conflict-cache builds, so a p99 over all passes would shift
	// with how many passes the run fitted.
	var totals, p99s []float64
	var updates []time.Duration
	var measured time.Duration
	for _, p := range passes {
		totals = append(totals, seconds(p.cpuTotal))
		p99s = append(p99s, quantile(durMillis(p.updatesCPU), 0.99))
		updates = append(updates, p.updatesCPU...)
		measured += p.cpuTotal
	}
	ms := durMillis(updates)
	first := passes[0]
	rep.set("setup_s", setupS)
	rep.set("peak_rss_mb", peakRSSMB())
	rep.set("frame_slots", float64(first.frames))
	rep.set("messages", float64(first.messages))
	rep.set("rounds", float64(first.rounds))
	rep.set("pass_cpu_s", median(totals))
	rep.set("op_cpu_p50_ms", median(ms))
	rep.set("op_cpu_p99_ms", median(p99s))
	rep.set("ops_per_cpu_s", float64(len(updates))/seconds(measured))
	for i, p := range passes {
		rep.note("  pass %d: wall %.3fs, CPU %.3fs, update wall p50 %.3f ms", i, seconds(p.total), seconds(p.cpuTotal), median(durMillis(p.updates)))
	}
	rep.note("session-churn seed %d: %d passes, %d update samples, %d creates", cfg.seed, len(passes), len(updates), len(first.creates)*len(passes))
	return nil
}

// tracedSession is the per-layer run: untraced and traced passes alternate
// until the measured time is used (at least one pair), then a direct
// incr.Updater replay of the same streams must reproduce the HTTP transcript
// and gives the layers below the handler their own timings.
func tracedSession(cfg config, rep *report, c *client, inputs []*sessionInput, genS float64) error {
	zeroLayers(rep)
	var rows []map[string]float64
	var plains []sessionPass
	var last sessionPass
	start := now()
	for len(rows) == 0 || now()-start < cfg.seconds {
		plain := sessionRun(c, rep, inputs, nil)
		traced := sessionRun(c, rep, inputs, cfg.spans)
		if len(plains) > 0 {
			checkSessionRepeat(rep, plains[0], plain)
		}
		checkSessionRepeat(rep, plain, traced)
		plains = append(plains, plain)
		last = traced
		rows = append(rows, map[string]float64{
			"bench.trace_overhead":          ratio(float64(traced.total), float64(plain.total)),
			"bench.op_samples":              float64(len(plain.updates)),
			"bench.wall_pass_s":             seconds(plain.total),
			"bench.wall_op_p50_ms":          median(durMillis(plain.updates)),
			"bench.wall_op_p99_ms":          quantile(durMillis(plain.updates), 0.99),
			"httpapi.create_p50_ms":         median(durMillis(plain.creates)),
			"httpapi.get_p50_us":            median(durMillis(plain.gets)) * 1e3,
			"httpapi.req_bytes_per_update":  ratio(float64(plain.reqBytes), float64(len(plain.updates))),
			"httpapi.resp_bytes_per_update": ratio(float64(plain.respBytes), float64(len(plain.updates))),
			"obs.scrape_ms":                 median(durMillis(plain.scrapes)),
			"go.gc_cycles":                  plain.rt.gcCycles,
			"go.gc_pause_ms":                plain.rt.pauseMs,
			"go.alloc_mb":                   plain.rt.allocMB,
		})
	}
	layers := medianRows(rows)
	layers["graph.gen_s"] = genS
	layers["obs.series"] = float64(last.series)
	replay(rep, inputs, plains, layers)
	setLayers(rep, layers)
	rep.note("session-churn seed %d traced: %d untraced/traced pass pairs", cfg.seed, len(rows))
	return nil
}

// createReps is how often the traced run repeats each direct create.
const createReps = 3

// createTimes splits one session create into the layers its handler calls.
type createTimes struct{ decode, cache, greedy, verify, incrNew time.Duration }

// handler is the time the create handler spends in these layers (the
// verification is part of incr.New there).
func (c createTimes) handler() time.Duration { return c.decode + c.cache + c.greedy + c.incrNew }

// directCreate runs the create handler's layers in turn: graph decoding,
// the conflict-cache build, the greedy schedule, its verification and
// incr.New.
func directCreate(body []byte) (*incr.Updater, createTimes, error) {
	var ct createTimes
	var req struct {
		Graph *graph.Graph `json:"graph"`
	}
	t0 := now()
	err := json.Unmarshal(body, &req)
	t1 := now()
	if err != nil {
		return nil, ct, err
	}
	if req.Graph == nil {
		return nil, ct, errors.New("create body carries no graph")
	}
	g := req.Graph
	coloring.CacheStats(g) // builds the topology and conflict caches
	t2 := now()
	as := coloring.Greedy(g, nil)
	t3 := now()
	viols := coloring.Verify(g, as)
	t4 := now()
	if len(viols) > 0 {
		return nil, ct, fmt.Errorf("greedy schedule has %d conflicts, first %v", len(viols), viols[0])
	}
	up, err := incr.New(g, as)
	t5 := now()
	return up, createTimes{decode: t1 - t0, cache: t2 - t1, greedy: t3 - t2, verify: t4 - t3, incrNew: t5 - t4}, err
}

// replay creates each session directly createReps times and drives its
// stream straight into incr.Updater.Apply, holding every report to the HTTP
// transcript of the last untraced pass. It fills the graph, coloring and
// incr layer metrics, and the HTTP layer's self time: per update, the HTTP
// latency minus the direct Apply of the same batch on the same state; per
// create, the HTTP latency minus the direct layers' time.
func replay(rep *report, inputs []*sessionInput, plains []sessionPass, layers map[string]float64) {
	plain := plains[len(plains)-1]
	var decode, cache, greedy, verifyT, newT, createSelf, updateSelf []float64
	var applies []time.Duration
	var mallocs, bytesAlloc float64
	var dirty, patched, rounds, recolored, rebuilds float64
	for si, in := range inputs {
		var up *incr.Updater
		var handler []float64
		for r := 0; r < createReps; r++ {
			u, ct, err := directCreate(in.create)
			rep.op(err == nil, "n=%d direct create: %v", in.n, err)
			if err != nil {
				break
			}
			up = u
			decode = append(decode, millis(ct.decode))
			cache = append(cache, millis(ct.cache))
			greedy = append(greedy, millis(ct.greedy))
			verifyT = append(verifyT, millis(ct.verify))
			newT = append(newT, millis(ct.incrNew))
			handler = append(handler, millis(ct.handler()))
		}
		if up == nil {
			continue
		}
		var httpCreate []float64
		for _, p := range plains {
			if si < len(p.creates) {
				httpCreate = append(httpCreate, millis(p.creates[si]))
			}
		}
		createSelf = append(createSelf, median(httpCreate)-median(handler))
		var transcript []updateResp
		if si < len(plain.transcripts) {
			transcript = plain.transcripts[si]
		}
		before := readGoStats()
		for i, b := range in.batches {
			a0 := now()
			r, err := up.Apply(b)
			d := now() - a0
			rep.op(err == nil, "n=%d apply %d: %v", in.n, i, err)
			if err != nil {
				break
			}
			if k := len(applies); k < len(plain.updates) {
				updateSelf = append(updateSelf, micros(plain.updates[k]-d))
			}
			applies = append(applies, d)
			if i < len(transcript) && !sameReport(r, transcript[i]) {
				rep.fail("n=%d update %d: direct Apply report differs from the HTTP response", in.n, i)
			}
			dirty += float64(r.DirtyArcs)
			patched += float64(r.CachePatchedArcs)
			rounds += float64(r.Rounds)
			recolored += float64(len(r.Recolored))
			if i > 0 {
				rebuilds += float64(r.CacheRebuilds)
			}
		}
		d := before.to(readGoStats())
		mallocs += d.mallocs
		bytesAlloc += d.bytes
	}
	n := float64(len(applies))
	ms := durMillis(applies)
	layers["graph.decode_ms"] = median(decode)
	layers["coloring.cache_build_ms"] = median(cache)
	layers["coloring.greedy_ms"] = median(greedy)
	layers["coloring.verify_ms"] = median(verifyT)
	layers["incr.new_ms"] = median(newT)
	layers["httpapi.create_self_ms"] = median(createSelf)
	layers["httpapi.update_self_us"] = median(updateSelf)
	layers["incr.apply_p50_ms"] = median(ms)
	layers["incr.apply_p99_ms"] = quantile(ms, 0.99)
	layers["incr.allocs_per_update"] = ratio(mallocs, n)
	layers["incr.bytes_per_update"] = ratio(bytesAlloc, n)
	layers["coloring.dirty_arcs_per_update"] = ratio(dirty, n)
	layers["coloring.patched_rows_per_update"] = ratio(patched, n)
	layers["coloring.stabilize_rounds_per_update"] = ratio(rounds, n)
	layers["coloring.recolored_per_update"] = ratio(recolored, n)
	layers["coloring.recolor_ratio"] = ratio(recolored, dirty)
	layers["coloring.cache_rebuilds"] = rebuilds
}

// sameReport compares a direct Apply report with an HTTP update response.
func sameReport(r *incr.Report, u updateResp) bool {
	return r.Events == u.Events && r.DirtyArcs == u.DirtyArcs && r.Rounds == u.Rounds &&
		r.FrameLength == u.Slots && r.CachePatches == u.CachePatches &&
		r.CachePatchedArcs == u.CachePatchedArcs &&
		sameSlots(r.Recolored, u.Recolored) && sameSlots(r.Dropped, u.Dropped)
}

func sameSlots(a, b []incr.ArcSlot) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
