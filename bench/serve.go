package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	atlas "repro"
)

// openRatePerS is the open-loop phase's arrival rate: half of this
// commit's closed-loop ops_per_s on serve_zipf (2 cores), rounded, then
// frozen so every later commit faces the same offered load.
const openRatePerS = 35

// openOps is how many stateless explores the open-loop phase sends.
const openOps = 300

// poster sends one API request and returns the status and body.
type poster func(path string, body any) (int, []byte, error)

// tcpPoster posts over its own loopback connection.
func tcpPoster(base string) (poster, func()) {
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	hc := &http.Client{Transport: tr, Timeout: 60 * time.Second}
	return func(path string, body any) (int, []byte, error) {
		raw, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		resp, err := hc.Post(base+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		return resp.StatusCode, out, err
	}, tr.CloseIdleConnections
}

// handlerPoster calls the handler directly: the server layer without TCP.
func handlerPoster(h http.Handler) poster {
	return func(path string, body any) (int, []byte, error) {
		raw, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)))
		return rec.Code, rec.Body.Bytes(), nil
	}
}

// apiServer is one started server over the census table.
type apiServer struct {
	handler http.Handler
	ts      *httptest.Server
}

func startAPIServer(t *atlas.Table) *apiServer {
	h := newAPIHandler(t)
	return &apiServer{handler: h, ts: httptest.NewServer(h)}
}

func (s *apiServer) stop() { s.ts.Close() }

// sessionSample is one op of one HTTP session.
type sessionSample struct {
	op     int
	took   time.Duration
	doneAt time.Time
	digest string // "" when the op failed
	bytes  int
	why    string // set when it failed
}

// runSession opens a session and sends its ops in order, until stop
// reports true (checked before each op).
func runSession(post poster, ops []sessionOp, stop func() bool) []sessionSample {
	status, raw, err := post("/api/sessions", struct{}{})
	var created struct {
		ID int `json:"id"`
	}
	if err == nil && status == http.StatusCreated {
		err = json.Unmarshal(raw, &created)
	} else if err == nil {
		err = fmt.Errorf("status %d: %s", status, raw)
	}
	if err != nil {
		return []sessionSample{{op: 0, doneAt: time.Now(), why: "create session: " + err.Error()}}
	}
	var out []sessionSample
	for i, op := range ops {
		if stop() {
			break
		}
		path := fmt.Sprintf("/api/sessions/%d/explore", created.ID)
		var body any = map[string]string{"cql": op.CQL}
		if op.Drill {
			path = fmt.Sprintf("/api/sessions/%d/drill", created.ID)
			body = map[string]int{"map": 0, "region": op.Region}
		}
		start := time.Now()
		status, raw, err := post(path, body)
		s := sessionSample{op: i, took: time.Since(start), doneAt: time.Now(), bytes: len(raw)}
		switch {
		case err != nil:
			s.why = err.Error()
		case status != http.StatusOK:
			s.why = fmt.Sprintf("status %d: %.120s", status, raw)
		default:
			canon, err := canonicalBody(raw)
			if err != nil {
				s.why = err.Error()
			} else {
				s.digest = digestString(canon)
			}
		}
		out = append(out, s)
		if s.why != "" {
			break // the session's state is no longer what the stream assumes
		}
	}
	return out
}

// closedSessions runs sessions back to back on `clients` connections
// until d has passed (d <= 0: exactly maxSessions sessions). It returns
// the samples with idx = session*opsPerSession+op and the failures.
func closedSessions(base string, seed int64, pool []string, clients int, d time.Duration, maxSessions int) ([]sample, []string) {
	var (
		mu       sync.Mutex
		samples  []sample
		failures []string
		next     atomic.Int64
		wg       sync.WaitGroup
	)
	start := time.Now()
	stop := func() bool { return d > 0 && time.Since(start) >= d }
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			post, closeConn := tcpPoster(base)
			defer closeConn()
			for !stop() {
				sess := int(next.Add(1) - 1)
				if maxSessions > 0 && sess >= maxSessions {
					return
				}
				got := runSession(post, sessionOps(seed, sess, pool), stop)
				mu.Lock()
				for _, s := range got {
					idx := sess*opsPerSession + s.op
					samples = append(samples, sample{idx: idx, doneAt: s.doneAt.Sub(start), ms: ms(s.took), digest: s.digest})
					if s.why != "" {
						failures = append(failures, fmt.Sprintf("session %d op %d: %s", sess, s.op, s.why))
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples, failures
}

func serveSetUp(cfg config) (*atlas.Table, *apiServer, []string, error) {
	census := censusTable(cfg.sc.rows, cfg.seed)
	srv := startAPIServer(census)
	pool := censusPool(cfg.seed)
	post, closeConn := tcpPoster(srv.ts.URL)
	defer closeConn()
	for i := 0; i < cfg.sc.warmup; i++ {
		if status, raw, err := post("/api/explore", map[string]string{"cql": pool[i%len(pool)]}); err != nil || status != http.StatusOK {
			srv.stop()
			return nil, nil, nil, fmt.Errorf("warm-up: status %d, %v: %.120s", status, err, raw)
		}
	}
	return census, srv, pool, nil
}

// runServe is serve_zipf's measured run: C clients run drill-down
// sessions back to back over HTTP for cfg.seconds.
func runServe(cfg config) (*result, error) {
	res := newResult("serve_zipf")
	var (
		census *atlas.Table
		srv    *apiServer
		pool   []string
	)
	tearDown := func() { srv.stop() }
	setupS, err := repeatSetUp(cfg.sc.setupReps, func(int) (err error) {
		census, srv, pool, err = serveSetUp(cfg)
		return err
	}, tearDown)
	if err != nil {
		return nil, err
	}
	defer tearDown()
	res.setN("setup_s", setupS, cfg.sc.setupReps)

	// Cold: a fresh server (cold stat cache, no sessions) to its first
	// stateless answer.
	cold, err := coldCycles(cfg.sc, func(i int) (func(), error) {
		fresh := startAPIServer(census)
		post, closeConn := tcpPoster(fresh.ts.URL)
		status, raw, err := post("/api/explore", map[string]string{"cql": pool[i%len(pool)]})
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %.120s", status, raw)
		}
		return func() { closeConn(); fresh.stop() }, err
	})
	if err != nil {
		return nil, err
	}
	res.setN("cold_first_ms", median(cold), len(cold))

	var failures []string
	p := measure(func() []sample {
		var s []sample
		s, failures = closedSessions(srv.ts.URL, cfg.seed, pool, cfg.par, cfg.duration(), 0)
		return s
	})
	res.endToEnd(p)
	res.Attempted = len(p.samples)
	for _, f := range failures {
		res.fail("%s", f)
	}
	if err := verifySessions(cfg, res, census, pool, p.samples); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	res.set("peak_rss_mb", peakRSSMB())
	return res, nil
}

// verifySessions checks the measured answers: with -seed 1 every op
// against the committed digests, and with any seed a few whole sessions
// against a sequential replay on a fresh server, without TCP.
func verifySessions(cfg config, res *result, census *atlas.Table, pool []string, samples []sample) error {
	got := map[int]string{}
	sessions := map[int]bool{}
	for _, s := range samples {
		if s.digest != "" {
			got[s.idx] = s.digest
			sessions[s.idx/opsPerSession] = true
		}
	}
	bad := map[int]string{}
	g, err := loadGolden(cfg)
	if err != nil {
		return err
	}
	if g != nil {
		for idx, d := range got {
			sess, op := idx/opsPerSession, idx%opsPerSession
			if sess < len(g.Sessions) && op < len(g.Sessions[sess]) && g.Sessions[sess][op] != d {
				bad[idx] = fmt.Sprintf("digest %s, committed %s", d, g.Sessions[sess][op])
			}
		}
	}
	ids := make([]int, 0, len(sessions))
	for s := range sessions {
		ids = append(ids, s)
	}
	sort.Ints(ids)
	ref := handlerPoster(newAPIHandler(census))
	for _, k := range spaced(len(ids), max(cfg.sc.verifyOps/6, 1)) {
		sess := ids[k]
		for _, s := range runSession(ref, sessionOps(cfg.seed, sess, pool), func() bool { return false }) {
			idx := sess*opsPerSession + s.op
			if d, measured := got[idx]; measured && d != s.digest && bad[idx] == "" {
				bad[idx] = fmt.Sprintf("digest %s, sequential reference %s %s", d, s.digest, s.why)
			}
		}
	}
	res.failAll(bad, func(i int) string { return fmt.Sprintf("session %d op %d", i/opsPerSession, i%opsPerSession) })
	return nil
}

// openLoop sends n stateless explores on a seeded Poisson schedule at
// openRatePerS over `conns` connections and times each from when it was
// due, so a stall is charged to every request it delays.
func openLoop(base string, seed int64, pool []string, conns, n int) (latMs []float64, lateMs []float64, failures []string) {
	cqls := statelessOps(seed, pool, n)
	rnd := rand.New(rand.NewSource(seed ^ 0x0be7a))
	due := make([]time.Duration, n)
	var at time.Duration
	for i := range due {
		at += time.Duration(rnd.ExpFloat64() / openRatePerS * float64(time.Second))
		due[i] = at
	}
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job, n) // every job fits, so the generator never waits for a worker
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			post, closeConn := tcpPoster(base)
			defer closeConn()
			for j := range jobs {
				status, raw, err := post("/api/explore", map[string]string{"cql": cqls[j.i]})
				lat := ms(time.Since(j.due))
				mu.Lock()
				latMs = append(latMs, lat)
				if err != nil || status != http.StatusOK {
					failures = append(failures, fmt.Sprintf("open op %d: status %d, %v: %.120s", j.i, status, err, raw))
				}
				mu.Unlock()
			}
		}()
	}
	start := time.Now()
	for i := range due {
		when := start.Add(due[i])
		time.Sleep(time.Until(when))
		lateMs = append(lateMs, ms(time.Since(when)))
		jobs <- job{i: i, due: when}
	}
	close(jobs)
	wg.Wait()
	return latMs, lateMs, failures
}

// traceServe is serve_zipf's probe run. The same sessions go through the
// library Session, the handler without TCP, one TCP client, and C TCP
// clients; differences between those are the layers' costs. Then the
// open-loop phase, and the decomposed pipeline over the pooled queries.
func traceServe(cfg config) (*result, error) {
	res := newResult("serve_zipf")
	census, srv, pool, err := serveSetUp(cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer srv.stop()
	nSessions := max(cfg.sc.probeOps/6, 2)
	never := func() bool { return false }

	// Library sessions: no HTTP at all.
	replay, err := newSessionReplay(census)
	if err != nil {
		return nil, err
	}
	var sessionMs, exploreMs, drillMs []float64
	var hits, misses int
	for s := 0; s < nSessions; s++ {
		ops := sessionOps(cfg.seed, s, pool)
		took, h, m, err := replay.run(ops)
		if err != nil {
			return nil, err
		}
		hits, misses = hits+h, misses+m
		for i, d := range took {
			sessionMs = append(sessionMs, ms(d))
			if ops[i].Drill {
				drillMs = append(drillMs, ms(d))
			} else {
				exploreMs = append(exploreMs, ms(d))
			}
		}
	}
	res.setN("session.explore_ms", median(exploreMs), len(exploreMs))
	res.setN("session.drill_ms", median(drillMs), len(drillMs))
	if hits+misses > 0 {
		res.set("session.predcache_hit_ratio", float64(hits)/float64(hits+misses))
	}

	// The handler without TCP, then one TCP client: same sessions.
	collect := func(post poster) (lat []float64, bytes int) {
		for s := 0; s < nSessions; s++ {
			for _, smp := range runSession(post, sessionOps(cfg.seed, s, pool), never) {
				res.Attempted++
				if smp.why != "" {
					res.fail("session %d op %d: %s", s, smp.op, smp.why)
					continue
				}
				lat = append(lat, ms(smp.took))
				bytes += smp.bytes
			}
		}
		return lat, bytes
	}
	runtime.GC()
	handlerMs, _ := collect(handlerPoster(srv.handler))
	post, closeConn := tcpPoster(srv.ts.URL)
	runtime.GC()
	singleMs, respBytes := collect(post)
	closeConn()
	res.setN("server.handler_ms", median(handlerMs), len(handlerMs))
	res.set("server.overhead_ms", median(handlerMs)-median(sessionMs))
	res.set("server.http_ms", median(singleMs)-median(handlerMs))
	if len(singleMs) > 0 {
		res.set("server.response_kb_per_op", float64(respBytes)/1024/float64(len(singleMs)))
	}

	// C clients, closed loop, fresh sessions: what queueing adds to p50.
	runtime.GC()
	multi, failures := closedSessions(srv.ts.URL, cfg.seed, pool, cfg.par, 0, 2*nSessions)
	res.Attempted += len(multi)
	for _, f := range failures {
		res.fail("%s", f)
	}
	multiMs := make([]float64, len(multi))
	for i, s := range multi {
		multiMs[i] = s.ms
	}
	res.setN("server.concurrency_wait_ms", median(multiMs)-median(singleMs), len(multiMs))

	// Open loop at the frozen rate.
	runtime.GC()
	n := openOps * cfg.sc.probeOps / fullScale.probeOps
	openMs, lateMs, failures := openLoop(srv.ts.URL, cfg.seed, pool, cfg.par, n)
	res.Attempted += len(openMs)
	for _, f := range failures {
		res.fail("%s", f)
	}
	sort.Float64s(openMs)
	res.setN("open_p50_ms", percentile(openMs, 50), len(openMs))
	res.setN("open_p95_ms", percentile(openMs, 95), len(openMs))
	res.setN("open_late_ms", median(lateMs), len(lateMs))

	// What the admission gate saw over all of the above.
	var stats struct {
		Admission struct {
			Admitted float64 `json:"admitted"`
			Shed     float64 `json:"shed"`
		} `json:"admission"`
	}
	if resp, err := http.Get(srv.ts.URL + "/api/stats"); err == nil {
		err = json.NewDecoder(resp.Body).Decode(&stats)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("/api/stats: %w", err)
		}
	} else {
		return nil, fmt.Errorf("/api/stats: %w", err)
	}
	res.set("server.admitted", stats.Admission.Admitted)
	res.set("server.shed", stats.Admission.Shed)

	// The decomposed pipeline over zipf-drawn pooled queries.
	rec := newRecorder()
	pl := newPipeline(census, cfg.par, nil)
	tf := traceFile{Workload: "serve_zipf", Seed: cfg.seed}
	cqls := statelessOps(cfg.seed, pool, cfg.sc.probeOps)
	for k, q := range cqls {
		tf.Ops = append(tf.Ops, probeOpInfo{Op: k, Class: "zipf", CQL: q})
		res.Attempted++
		if err := pl.probeOp(rec, k, q); err != nil {
			res.fail("probe op %d: %v", k, err)
		}
	}
	res.layerMetrics(rec, pl)
	if v, err := pl.statCacheSpeedup(); err != nil {
		return nil, err
	} else {
		res.set("core.statcache_speedup", v)
	}
	res.Info["single_client_p50_ms"] = median(singleMs)
	res.Info["c_clients_p50_ms"] = median(multiMs)
	res.finishTrace(cfg, rec, tf)
	return res, nil
}
