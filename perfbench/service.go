package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"overd/internal/serve"
)

// serviceSpec is the job-service mix: closed-loop clients against an
// in-process server with the real runner and a durable journal.
type serviceSpec struct {
	Name    string
	Clients int // closed-loop clients, one connection each
	Workers int // server worker pool
	Nodes   int
	Steps   int
	Scale   float64
	Check   int
}

func defaultService() serviceSpec {
	n := min(2, runtime.NumCPU())
	return serviceSpec{Name: "service-mix", Clients: n, Workers: n,
		Nodes: 3, Steps: 2, Scale: 1, Check: 2}
}

func (s serviceSpec) String() string {
	return fmt.Sprintf("clients=%d (closed loop) workers=%d journal=fsync miss_job={case=airfoil scale=%g nodes=%d steps=%d balancer=dynamic check_every=%d fo=seeded in [%d,%d)} every second job repeats an earlier one; %d jobs per server instance",
		s.Clients, s.Workers, s.Scale, s.Nodes, s.Steps, s.Check, s.Nodes+1, s.Nodes+11, jobsPerServer)
}

// newJob draws a job the service has not seen: the dynamic balancer's
// threshold fo is seeded and always above the node count, so it never
// repartitions (max I(p)/mean I(p) cannot exceed the node count) and every
// miss costs the same solve while hashing differently.
func (s serviceSpec) newJob(rng *rand.Rand) string {
	return airfoilJob(s.Nodes, s.Steps, s.Scale, s.Check, rng)
}

// warmJob is a distinct one-step job: the first job a set-up serves.
func (s serviceSpec) warmJob(rng *rand.Rand) string {
	return airfoilJob(s.Nodes, 1, 0.05, s.Check, rng)
}

func airfoilJob(nodes, steps int, scale float64, check int, rng *rand.Rand) string {
	fo := float64(nodes+1) + 10*rng.Float64()
	return fmt.Sprintf(`{"case":"airfoil","nodes":%d,"steps":%d,"scale":%g,"balancer":"dynamic","fo":%s,"check_every":%d}`,
		nodes, steps, scale, strconv.FormatFloat(fo, 'g', -1, 64), check)
}

// jobOp is one client-observed job, POST to fetched result.
type jobOp struct {
	miss, dedup, rejected  bool    // rejected: refused with 429/503
	lat, post, wait, fetch float64 // ms
	spans                  bool
	stage                  map[string]float64 // span stage -> ms
}

// svcRun is the state shared by one service run's clients.
type svcRun struct {
	spec     serviceSpec
	base     string
	rep      *report
	mu       sync.Mutex // guards rep, result and rejected
	result   map[string][]byte
	rejected int
}

type jobView struct {
	ID     string `json:"id"`
	Hash   string `json:"hash"`
	Status string `json:"status"`
	Cache  string `json:"cache"`
}

// client is one closed-loop caller: it submits, waits for the terminal
// event, fetches the result, and only then submits again.
type client struct {
	id   int
	rng  *rand.Rand
	http *http.Client
	hist []string
	n    int
}

func newClient(id int, seed int64) *client {
	return &client{
		id:   id,
		rng:  rand.New(rand.NewSource(seed*7919 + int64(id))),
		http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
	}
}

// next returns the client's next job body: new jobs alternate with
// repeats of a uniformly chosen earlier job of its own.
func (c *client) next(s serviceSpec) string {
	c.n++
	if c.n%2 == 0 && len(c.hist) > 0 {
		return c.hist[c.rng.Intn(len(c.hist))]
	}
	body := s.newJob(c.rng)
	c.hist = append(c.hist, body)
	return body
}

// do runs one job through the HTTP API and checks its result bytes: a
// repeat must return exactly the bytes of the run that produced them.
func (sr *svcRun) do(c *client, body string, withSpans bool) (jobOp, error) {
	var op jobOp
	t0 := time.Now()
	req, err := http.NewRequest("POST", sr.base+"/jobs", strings.NewReader(body))
	if err != nil {
		return op, err
	}
	req.Header.Set(serve.TenantHeader, fmt.Sprintf("client-%d", c.id))
	resp, err := c.http.Do(req)
	if err != nil {
		return op, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return op, err
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		op.rejected = true
		return op, fmt.Errorf("POST refused: %d %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return op, fmt.Errorf("POST: %d %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var v jobView
	if err := json.Unmarshal(data, &v); err != nil {
		return op, fmt.Errorf("POST response: %w", err)
	}
	t1 := time.Now()
	op.miss = v.Cache != "hit"
	op.dedup = v.Cache == "inflight"
	if v.Status != "done" {
		if err := sr.waitTerminal(c, v.ID); err != nil {
			return op, err
		}
	}
	t2 := time.Now()
	resp, err = c.http.Get(sr.base + "/jobs/" + v.ID + "/result?artifact=tables")
	if err != nil {
		return op, err
	}
	tables, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return op, err
	}
	if resp.StatusCode != http.StatusOK {
		return op, fmt.Errorf("result of %s: %d %s", v.ID, resp.StatusCode, bytes.TrimSpace(tables))
	}
	t3 := time.Now()
	ms := func(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }
	op.lat, op.post, op.wait, op.fetch = ms(t0, t3), ms(t0, t1), ms(t1, t2), ms(t2, t3)

	sr.mu.Lock()
	prev, seen := sr.result[v.Hash]
	if !seen {
		sr.result[v.Hash] = tables
	}
	sr.mu.Unlock()
	if seen && !bytes.Equal(prev, tables) {
		return op, fmt.Errorf("job %s (hash %.12s, cache %s) returned bytes differing from the first result for that hash", v.ID, v.Hash, v.Cache)
	}
	if withSpans {
		if err := sr.fetchSpans(c, v.ID, &op); err != nil {
			return op, err
		}
	}
	return op, nil
}

// waitTerminal reads the job's event stream until its terminal event.
func (sr *svcRun) waitTerminal(c *client, id string) error {
	resp, err := c.http.Get(sr.base + "/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var ev struct {
			Type  string `json:"type"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("event stream of %s: %w", id, err)
		}
		switch ev.Type {
		case "done":
			_, err := io.Copy(io.Discard, resp.Body)
			return err
		case "error", "cancelled":
			return fmt.Errorf("job %s ended %s: %s", id, ev.Type, ev.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("event stream of %s ended without a terminal event", id)
}

// fetchSpans reads the job's flight-recorder record and sums its stages.
func (sr *svcRun) fetchSpans(c *client, id string, op *jobOp) error {
	resp, err := c.http.Get(sr.base + "/jobs/" + id + "/spans")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("spans of %s: %d", id, resp.StatusCode)
	}
	var rec struct {
		Spans []struct {
			Stage    string  `json:"stage"`
			Duration float64 `json:"duration_seconds"`
		} `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		return fmt.Errorf("spans of %s: %w", id, err)
	}
	op.spans = true
	op.stage = map[string]float64{}
	for _, s := range rec.Spans {
		op.stage[s.Stage] += s.Duration * 1e3
	}
	return nil
}

// jobsPerServer caps the jobs one server instance sees. The server keeps
// every job it has admitted, artifacts included, so the workload runs in
// rounds on fresh servers to bound the benchmark's memory.
const jobsPerServer = 60

// roundKind is one setting a round runs under.
type roundKind struct {
	procs int  // GOMAXPROCS
	spans bool // fetch each job's span record
}

// sideOps is what the rounds of one kind produced.
type sideOps struct {
	ops          []jobOp
	wall         float64 // summed round walls
	allocB, allN uint64  // heap bytes and objects allocated during the rounds
}

// interleave runs rounds of kind a and kind b in turn, giving b bShare of
// the time, until the budget ends and each kind has its minimum misses.
// Interleaving keeps slow drift of the host out of the a/b comparison.
func (sr *svcRun) interleave(root string, clients []*client, until time.Time, a, b roundKind, minA, minB int, bShare float64) (sa, sb sideOps, err error) {
	start := time.Now()
	var lastA, lastB float64
	for {
		doneA := len(missLatencies(sa.ops)) >= minA
		doneB := len(missLatencies(sb.ops)) >= minB
		// Stop once resolved and the next round would end nearer past the
		// budget than short of it.
		if doneA && doneB && time.Until(until).Seconds() <= max(lastA, lastB)/2 {
			return sa, sb, nil
		}
		if time.Since(start) > 150*time.Second {
			return sa, sb, fmt.Errorf("service-mix: minimum misses not reached in 150 s")
		}
		kind, side, last := a, &sa, &lastA
		switch {
		case doneB && !doneA:
		case doneA && !doneB || sb.wall < bShare*(sa.wall+sb.wall):
			kind, side, last = b, &sb, &lastB
		}
		var m0, m1 runtime.MemStats
		runtime.GOMAXPROCS(kind.procs)
		runtime.ReadMemStats(&m0)
		ops, wall, err := sr.round(root, clients, kind.spans)
		runtime.ReadMemStats(&m1)
		runtime.GOMAXPROCS(runtime.NumCPU())
		if err != nil {
			return sa, sb, err
		}
		side.ops = append(side.ops, ops...)
		side.wall += wall
		side.allocB += m1.TotalAlloc - m0.TotalAlloc
		side.allN += m1.Mallocs - m0.Mallocs
		*last = wall
	}
}

// round brings up a fresh server and runs every client against it in a
// closed loop, with fresh job histories, until jobsPerServer jobs have
// started. It returns the completed ops and the wall time from the round's
// start until the last client stopped.
func (sr *svcRun) round(root string, clients []*client, spans bool) ([]jobOp, float64, error) {
	stop, err := sr.start(root)
	if err != nil {
		return nil, 0, err
	}
	defer stop()
	start := time.Now()
	var started, failures atomic.Int64
	var mu sync.Mutex
	var ops []jobOp
	var wg sync.WaitGroup
	for _, c := range clients {
		c.hist, c.n = nil, 0
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for started.Add(1) <= jobsPerServer && failures.Load() <= 20 {
				op, err := sr.do(c, c.next(sr.spec), spans)
				sr.mu.Lock()
				sr.rep.attempted++
				if err != nil {
					sr.rep.fail("client %d: %v", c.id, err)
					if op.rejected {
						sr.rejected++
					}
				}
				sr.mu.Unlock()
				if err != nil {
					failures.Add(1)
					continue
				}
				mu.Lock()
				ops = append(ops, op)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if failures.Load() > 20 {
		return nil, 0, fmt.Errorf("service-mix: too many failed jobs")
	}
	return ops, time.Since(start).Seconds(), nil
}

// start brings up a server with the real runner and an fsync'd journal in
// a fresh directory under root, and points the clients at it. The returned
// function shuts both down.
func (sr *svcRun) start(root string) (stop func(), err error) {
	dir, err := os.MkdirTemp(root, "svc-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.Config{
		Workers: sr.spec.Workers, JournalDir: dir, CacheBytes: 256 << 20,
		Limits: serve.Limits{MaxNodes: 64, MaxSteps: 1000, MaxScale: 1},
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	sr.base = ts.URL
	return func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // the round is over; a slow drain only delays exit
		os.RemoveAll(dir)
	}, nil
}

// runService is the service-mix workload.
func runService(s serviceSpec, opt options, rep *report) error {
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	if err := os.MkdirAll(opt.tmpDir, 0o755); err != nil {
		return err
	}
	root, err := os.MkdirTemp(opt.tmpDir, "perfbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	sr := &svcRun{spec: s, rep: rep, result: map[string][]byte{}}
	gc0 := readGC()

	// Set-up: server start plus its first served job (a one-step job),
	// repeated for a tenth of the budget but at least until the median is
	// resolved.
	start := time.Now()
	setupRNG := rand.New(rand.NewSource(opt.seed))
	warm := newClient(-1, 0)
	var setups samples
	for len(setups) < minSamples(0.5) || time.Since(start).Seconds() < opt.seconds/10 {
		t0 := time.Now()
		stop, err := sr.start(root)
		if err != nil {
			return err
		}
		rep.attempted++
		_, err = sr.do(warm, s.warmJob(setupRNG), false)
		setups = append(setups, time.Since(t0).Seconds())
		stop()
		if err != nil {
			return fmt.Errorf("warm-up job: %w", err)
		}
	}

	clients := make([]*client, s.Clients)
	for i := range clients {
		clients[i] = newClient(i, opt.seed)
	}
	until := start.Add(time.Duration(opt.seconds * float64(time.Second)))
	plain := roundKind{procs: nproc}
	if opt.trace {
		// Plain rounds alternate with rounds that also fetch every job's
		// span record: the step between the two is the tracing overhead.
		sa, sb, err := sr.interleave(root, clients, until, plain, roundKind{procs: nproc, spans: true},
			minSamples(0.5), minSamples(0.5), 0.5)
		if err != nil {
			return err
		}
		serviceLayers(append(sa.ops, sb.ops...), sr.rejected, gc0, readGC(), rep)
		return nil
	}

	// Two thirds of the time at nproc, the rest at one proc.
	one, minOne, share := roundKind{procs: 1}, minSamples(0.5), 1.0/3
	if nproc == 1 {
		minOne, share = 0, 0
	}
	sa, sb, err := sr.interleave(root, clients, until, plain, one, minSamples(0.9), minOne, share)
	if err != nil {
		return err
	}
	missN := missLatencies(sa.ops)
	miss1 := missLatencies(sb.ops)
	if nproc == 1 {
		miss1 = missN
	}
	setup, _ := setups.percentile(0.5)
	p50, _ := missN.percentile(0.5)
	p90, _ := missN.percentile(0.9)
	q50, _ := miss1.percentile(0.5)
	jobs := float64(len(sa.ops))
	speed := ratio{q50, p50, "miss_ms_p50@1proc", fmt.Sprintf("miss_ms_p50@%dproc", nproc)}
	rep.add("setup_s", setup, "s", fmt.Sprintf("median of %d: server start + a one-step job served", len(setups)))
	rep.add("op_ms_p50", p50, "ms", fmt.Sprintf("cache-miss job POST->result, n=%d at GOMAXPROCS=%d", len(missN), nproc))
	rep.add("op_ms_p90", p90, "ms", fmt.Sprintf("cache-miss job POST->result, n=%d at GOMAXPROCS=%d", len(missN), nproc))
	rep.add("ops_per_s", jobs/sa.wall, "1/s", fmt.Sprintf("jobs %d (hits and misses) / %.3f s of rounds", len(sa.ops), sa.wall))
	rep.add("proc_speedup", speed.value(), "x", fmt.Sprintf("%s; n=%d at 1 proc", speed, len(miss1)))
	rep.add("alloc_mb_per_op", float64(sa.allocB)/1e6/jobs, "MB", fmt.Sprintf("heap bytes over %d jobs, whole process", len(sa.ops)))
	rep.add("allocs_per_op", float64(sa.allN)/jobs, "count", fmt.Sprintf("heap objects over %d jobs, whole process", len(sa.ops)))
	return nil
}

func missLatencies(ops []jobOp) samples {
	var ms samples
	for _, op := range ops {
		if op.miss {
			ms = append(ms, op.lat)
		}
	}
	return ms
}

// serviceLayers reports the traced service pass: client-side stage means
// over every job, server span stages over the jobs whose records were
// fetched (journal, queue, execute and publish over misses only).
func serviceLayers(ops []jobOp, rejected int, gc0, gc1 gcSample, rep *report) {
	lv := newLayerValues()
	var post, wait, fetch, hits, plainMiss, spanMiss samples
	dedup := 0
	stage := map[string]samples{}
	for _, op := range ops {
		post = append(post, op.post)
		wait = append(wait, op.wait)
		fetch = append(fetch, op.fetch)
		if op.dedup {
			dedup++
		}
		if !op.miss {
			hits = append(hits, op.lat)
		} else if op.spans {
			spanMiss = append(spanMiss, op.lat)
		} else {
			plainMiss = append(plainMiss, op.lat)
		}
		if !op.spans {
			continue
		}
		stage["cache-lookup"] = append(stage["cache-lookup"], op.stage["cache-lookup"])
		if op.miss {
			for _, st := range []string{"journal-append", "queue", "execute", "publish"} {
				stage[st] = append(stage[st], op.stage[st])
			}
		}
	}
	perJob := fmt.Sprintf("mean per job, n=%d", len(ops))
	lv.set("serve.post_ms", post.mean(), perJob)
	lv.set("serve.wait_ms", wait.mean(), perJob)
	lv.set("serve.fetch_ms", fetch.mean(), perJob)
	for name, st := range map[string]string{"serve.journal_ms": "journal-append", "serve.cache_ms": "cache-lookup",
		"serve.queue_ms": "queue", "serve.execute_ms": "execute", "serve.publish_ms": "publish"} {
		lv.set(name, stage[st].mean(), fmt.Sprintf("span %q, mean of %d records", st, len(stage[st])))
	}
	for _, q := range []struct {
		name string
		p    float64
	}{{"serve.hit_ms_p50", 0.5}, {"serve.hit_ms_p90", 0.9}} {
		v, ok := hits.percentile(q.p)
		note := fmt.Sprintf("cache-hit job POST->result, n=%d", len(hits))
		if !ok {
			note = "unresolved: fewer than 10 samples beyond it, n=" + strconv.Itoa(len(hits))
		}
		lv.set(q.name, v, note)
	}
	n := float64(len(ops))
	hf := ratio{float64(len(hits)), n, "hits", "jobs"}
	lv.set("serve.hit_frac", hf.value(), hf.String())
	df := ratio{float64(dedup), n, "in-flight dedups", "jobs"}
	lv.set("serve.dedup_frac", df.value(), df.String())
	lv.set("serve.rejected", float64(rejected), "429/503 refusals")
	lv.setGC(gc0, gc1)
	a, _ := spanMiss.percentile(0.5)
	b, _ := plainMiss.percentile(0.5)
	ov := ratio{a, b, "miss p50 with span fetch", "miss p50 without"}
	lv.set("trace.overhead_frac", ov.value(), fmt.Sprintf("%s; n=%d and %d", ov, len(spanMiss), len(plainMiss)))
	lv.emit(rep)
}
