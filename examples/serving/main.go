// Serving: the SLO story of the serving tier, measured.
//
// Phase 1 — deadline-ordered dispatch. A mixed workload (90% heavy
// loose-deadline requests, 10% small tight-deadline requests arriving
// LAST in each burst) runs twice through the async queue: once with the
// FIFO drain (EDF off, no batch window — the pre-serving behavior) and
// once with EDF + a max-batch-window. Under FIFO the tight request
// executes after every heavy request that merely arrived earlier and
// blows its deadline; under EDF the dispatcher holds the drain open so
// the burst lands in one batch, orders it by deadline, and the tight
// request runs first. The example prints the SLO report — per-class
// p50/p99 against the deadline and the miss rate — for both modes.
//
// Phase 2 — admission control over HTTP. In-process loops keep heavy
// dispatches queued on the engine behind the internal/serve tier while
// concurrent small tight-deadline requests arrive over HTTP: requests
// whose predicted queue wait exceeds their deadline are shed with 429 +
// Retry-After instead of dying in the queue, and the shed rate is
// reported from the server's own counters.
//
// Phase 3 — per-tenant SLO accounting. Two tenant classes share one
// server: "rt" (class 5, 25ms objective, 99% target) posting small
// traceparent-tagged requests and "batch" (class -1, no objective)
// posting heavy ones. Every response echoes the request's trace id on
// X-IATF-Trace, the structured access log joins each HTTP line with its
// engine span (predicted vs actual queue wait, per-phase durations),
// and the per-tenant ledger — requests, sheds, deadline hits vs misses,
// latency quantiles, SLO burn rate — is printed from the server's
// /tenants view.
//
// The workload self-calibrates: the heavy shape is sized so one heavy
// dispatch costs roughly 0.5–2ms on the host, keeping all phases
// meaningful from laptops to servers.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"iatf"
	"iatf/internal/serve"
)

const (
	rounds     = 30 // bursts per mode; tight p99 over 30 samples ≈ max
	heavyPerRt = 16 // heavy loose-deadline requests per burst
	smallN     = 4  // tight requests: 64 4×4 matrices — microseconds of work
	smallCount = 64
	window     = 2 * time.Millisecond
)

func mkBatch(rng *rand.Rand, count, n int) *iatf.Compact[float32] {
	b := iatf.NewBatch[float32](count, n, n)
	for j, d := 0, b.Data(); j < len(d); j++ {
		d[j] = rng.Float32()
	}
	return iatf.Pack(b)
}

// calibrate sizes the heavy GEMM so one dispatch costs ~0.5–2ms here.
func calibrate(rng *rand.Rand) (count int, th time.Duration) {
	eng := iatf.NewEngine()
	const n = 8
	count = 1024
	for {
		a, b, c := mkBatch(rng, count, n), mkBatch(rng, count, n), mkBatch(rng, count, n)
		req := iatf.Request[float32]{Op: iatf.OpGEMM, Alpha: 1, Beta: 1, A: a, B: b, C: c}
		// Warm the plan cache, then time the median of three.
		if err := iatf.Do(context.Background(), req, iatf.WithEngine(eng)); err != nil {
			log.Fatal(err)
		}
		var ts []time.Duration
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			if err := iatf.Do(context.Background(), req, iatf.WithEngine(eng)); err != nil {
				log.Fatal(err)
			}
			ts = append(ts, time.Since(t0))
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		th = ts[1]
		switch {
		case th < 800*time.Microsecond && count < 1<<20:
			count *= 2
		case th > 2*time.Millisecond && count > 64:
			count /= 2
		default:
			return count, th
		}
	}
}

func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q * float64(len(s)-1))
	return s[i]
}

// burstTrial runs `rounds` bursts through one engine configuration and
// returns the tight- and loose-class latencies (submit → resolved).
func burstTrial(rng *rand.Rand, edf bool, heavyCount int, tightDL time.Duration) (tight, loose []time.Duration, misses int) {
	w := time.Duration(0)
	if edf {
		w = window
	}
	eng := iatf.NewEngine(iatf.WithEDF(edf), iatf.WithBatchWindow(w))

	const n = 8
	// Distinct alpha per heavy client: same shape, different scalar. A
	// burst queues heavyPerRt independent heavy requests for the EDF pass
	// (or FIFO) to order.
	type client struct {
		req iatf.Request[float32]
	}
	heavy := make([]client, heavyPerRt)
	for i := range heavy {
		heavy[i] = client{req: iatf.Request[float32]{
			Op: iatf.OpGEMM, Alpha: 1 + float32(i)/1000, Beta: 1,
			A: mkBatch(rng, heavyCount, n), B: mkBatch(rng, heavyCount, n), C: mkBatch(rng, heavyCount, n),
		}}
	}
	primer := iatf.Request[float32]{
		Op: iatf.OpGEMM, Alpha: 0.5, Beta: 1,
		A: mkBatch(rng, heavyCount, n), B: mkBatch(rng, heavyCount, n), C: mkBatch(rng, heavyCount, n),
	}
	tq := iatf.Request[float32]{
		Op: iatf.OpGEMM, Alpha: 1, Beta: 1,
		A: mkBatch(rng, smallCount, smallN), B: mkBatch(rng, smallCount, smallN), C: mkBatch(rng, smallCount, smallN),
	}

	for r := 0; r < rounds; r++ {
		// Prime: one inline heavy dispatch occupies the engine so the burst
		// behind it genuinely queues.
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := iatf.Do(context.Background(), primer, iatf.WithEngine(eng), iatf.WithAsync()); err != nil {
				log.Fatal(err)
			}
		}()
		time.Sleep(100 * time.Microsecond)

		// The burst: heavy loose requests first...
		type timed struct {
			fut   *iatf.Future
			start time.Time
		}
		looseT := make([]timed, heavyPerRt)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		for i := range heavy {
			looseT[i].start = time.Now()
			fut, err := iatf.Submit(ctx, heavy[i].req, iatf.WithEngine(eng))
			if err != nil {
				log.Fatal(err)
			}
			looseT[i].fut = fut
		}
		// ...then, last to arrive, the tight-deadline request.
		time.Sleep(200 * time.Microsecond)
		tctx, tcancel := context.WithTimeout(context.Background(), tightDL)
		tStart := time.Now()
		tfut, err := iatf.Submit(tctx, tq, iatf.WithEngine(eng), iatf.WithPriority(5))
		if err != nil {
			log.Fatal(err)
		}

		if err := tfut.Err(); err != nil {
			misses++ // expired in queue: an SLO miss by definition
			tight = append(tight, tightDL+time.Millisecond)
		} else {
			lat := time.Since(tStart)
			tight = append(tight, lat)
			if lat > tightDL {
				misses++
			}
		}
		for i := range looseT {
			if err := looseT[i].fut.Err(); err != nil {
				log.Fatal(err)
			}
			loose = append(loose, time.Since(looseT[i].start))
		}
		wg.Wait()
		tcancel()
		cancel()
	}
	return tight, loose, misses
}

func phase1(rng *rand.Rand) {
	heavyCount, th := calibrate(rng)
	// The tight deadline sits between the EDF outcome (~window + small
	// compute, plus this host's timer jitter) and the FIFO outcome
	// (~heavyPerRt heavy dispatches): 40% of the FIFO backlog plus two
	// windows of slack.
	tightDL := time.Duration(heavyPerRt)*th*2/5 + 2*window
	fmt.Printf("calibrated heavy shape: %d 8×8 f32 matrices ≈ %v/dispatch\n", heavyCount, th.Round(10*time.Microsecond))
	fmt.Printf("burst: %d heavy loose requests + 1 tight (deadline %v, arrives last), %d rounds\n\n",
		heavyPerRt, tightDL.Round(time.Millisecond), rounds)

	type result struct {
		mode         string
		tight, loose []time.Duration
		misses       int
	}
	var results []result
	for _, mode := range []struct {
		name string
		edf  bool
	}{{"FIFO (EDF off, window 0)", false}, {fmt.Sprintf("EDF + %v window", window), true}} {
		tight, loose, misses := burstTrial(rng, mode.edf, heavyCount, tightDL)
		results = append(results, result{mode.name, tight, loose, misses})
	}

	fmt.Printf("%-26s %12s %12s %12s %12s %8s\n", "mode", "tight p50", "tight p99", "loose p50", "loose p99", "miss")
	for _, r := range results {
		fmt.Printf("%-26s %12v %12v %12v %12v %7.0f%%\n", r.mode,
			quantile(r.tight, 0.50).Round(10*time.Microsecond),
			quantile(r.tight, 0.99).Round(10*time.Microsecond),
			quantile(r.loose, 0.50).Round(10*time.Microsecond),
			quantile(r.loose, 0.99).Round(10*time.Microsecond),
			100*float64(r.misses)/float64(rounds))
	}
	fmt.Printf("\ntight deadline %v: FIFO p99 %v (missed %d/%d), EDF p99 %v (missed %d/%d)\n\n",
		tightDL.Round(time.Millisecond),
		quantile(results[0].tight, 0.99).Round(10*time.Microsecond), results[0].misses, rounds,
		quantile(results[1].tight, 0.99).Round(10*time.Microsecond), results[1].misses, rounds)
}

func phase2(rng *rand.Rand) {
	heavyCount, th := calibrate(rng)
	eng := iatf.NewEngine(iatf.WithBatchWindow(window))
	srv := serve.New(serve.Config{Engine: eng})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	url := "http://" + ln.Addr().String() + "/v1/do"

	// Backlog: heavy loops on the same engine, in process as phase 1's
	// primer is, keep the queue deep for the whole phase, so the HTTP
	// posts meet real queue wait and the queue-wait histogram sees it.
	// Posting the heavy work as JSON instead left the queue nearly
	// empty: its deadline went on the wire.
	const n, loaders = 8, 4
	stop := make(chan struct{})
	var loops sync.WaitGroup
	for l := 0; l < loaders; l++ {
		req := iatf.Request[float32]{
			Op: iatf.OpGEMM, Alpha: 1 + float32(l)/1000, Beta: 1,
			A: mkBatch(rng, heavyCount, n), B: mkBatch(rng, heavyCount, n), C: mkBatch(rng, heavyCount, n),
		}
		loops.Add(1)
		go func() {
			defer loops.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := iatf.Do(context.Background(), req, iatf.WithEngine(eng), iatf.WithAsync()); err != nil {
					log.Fatal(err)
				}
			}
		}()
	}

	// Wire bodies: the small tight requests, microseconds of compute.
	data := func() []float64 {
		d := make([]float64, smallCount*smallN*smallN)
		for i := range d {
			d[i] = rng.Float64()
		}
		return d
	}
	a, b, c := data(), data(), data()
	body := func(alpha float64, dlMs int64) []byte {
		j, _ := json.Marshal(serve.DoRequest{
			Op: "gemm", DType: "f32", Alpha: alpha, Beta: 1, Count: smallCount,
			A:          &serve.WireOperand{Rows: smallN, Cols: smallN, Data: a},
			B:          &serve.WireOperand{Rows: smallN, Cols: smallN, Data: b},
			C:          &serve.WireOperand{Rows: smallN, Cols: smallN, Data: c},
			DeadlineMs: dlMs,
		})
		return j
	}

	// Main-traffic deadline ≈ batch window + three heavy dispatches:
	// achievable when a post lands just before a drain, missed when it
	// waits behind a drained batch of heavy work, and shed once the
	// recent wait tail says so. Every fourth post asks for a 1ms
	// deadline — tighter than the batch window itself, so the predicted
	// wait (floored at the window) can never be met and admission
	// control sheds it up-front with a 429.
	dlMs := int64((window+3*th)/time.Millisecond) + 1
	const workers, perWorker = 16, 8
	var ok, shed, tightShed, timedOut, other int64
	var mu sync.Mutex
	var retryAfter string
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				dl, tight := dlMs, false
				if i%4 == 3 {
					dl, tight = 1, true
				}
				resp, err := http.Post(url, "application/json",
					bytes.NewReader(body(1+float64(w*perWorker+i)/1e4, dl)))
				if err != nil {
					log.Fatal(err)
				}
				mu.Lock()
				switch resp.StatusCode {
				case http.StatusOK:
					ok++
				case http.StatusTooManyRequests:
					shed++
					if tight {
						tightShed++
					}
					if ra := resp.Header.Get("Retry-After"); ra != "" {
						retryAfter = ra
					}
				case http.StatusGatewayTimeout:
					timedOut++
				default:
					other++
				}
				mu.Unlock()
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	loops.Wait()

	st := srv.Stats()
	total := int64(workers * perWorker)
	fmt.Printf("HTTP overload: %d workers × %d posts of %d %d×%d GEMMs, deadline %dms (every 4th: 1ms), behind %d in-process loops of %d-matrix GEMMs\n",
		workers, perWorker, smallCount, smallN, smallN, dlMs, loaders, heavyCount)
	fmt.Printf("  200 OK: %d   429 shed: %d (%.0f%%, Retry-After %ss; %d of them sub-window 1ms probes)   504: %d   other: %d\n",
		ok, shed, 100*float64(shed)/float64(total), retryAfter, tightShed, timedOut, other)
	fmt.Printf("  server counters: admitted %d, done %d, shed %d, queue-full %d, expired %d\n",
		st.Admitted, st.Done, st.Shed, st.QueueFull, st.Expired)
	fmt.Printf("  queue: depth HW %d, wait p99 %v, window %v\n",
		st.Queue.DepthHighWater, st.Queue.Wait.P99.Round(10*time.Microsecond), st.Queue.Window)
}

// phase3 runs two tenant classes against one server and reports the
// per-tenant SLO ledger plus the trace/access-log join.
func phase3(rng *rand.Rand) {
	heavyCount, th := calibrate(rng)
	eng := iatf.NewEngine(iatf.WithBatchWindow(window))
	var accessLog bytes.Buffer
	srv := serve.New(serve.Config{
		Engine: eng,
		Tenants: map[string]iatf.TenantObjective{
			"rt":    {Class: 5, Objective: 25 * time.Millisecond, Target: 0.99},
			"batch": {Class: -1},
		},
		AccessLog: &accessLog,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	url := "http://" + ln.Addr().String() + "/v1/do"

	const n = 8
	var rngMu sync.Mutex // the posting goroutines below share rng
	data := func(count, n int) []float64 {
		rngMu.Lock()
		defer rngMu.Unlock()
		d := make([]float64, count*n*n)
		for i := range d {
			d[i] = rng.Float64()
		}
		return d
	}
	mkBody := func(count, n int, alpha float64, dlMs int64) []byte {
		j, _ := json.Marshal(serve.DoRequest{
			Op: "gemm", DType: "f32", Alpha: alpha, Beta: 1, Count: count,
			A:          &serve.WireOperand{Rows: n, Cols: n, Data: data(count, n)},
			B:          &serve.WireOperand{Rows: n, Cols: n, Data: data(count, n)},
			C:          &serve.WireOperand{Rows: n, Cols: n, Data: data(count, n)},
			DeadlineMs: dlMs,
		})
		return j
	}
	post := func(body []byte, tenant, traceID string) (int, string) {
		req, _ := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-IATF-Tenant", tenant)
		if traceID != "" {
			req.Header.Set("traceparent", "00-"+traceID+"-0000000000000001-01")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("X-IATF-Trace")
	}

	// batch floods heavy no-deadline work; rt interleaves small
	// traceparent-tagged posts with a 25ms deadline, while the batch
	// flood builds real backlog.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				post(mkBody(heavyCount, n, 1+float64(w*8+i)/1e4, 0), "batch", "")
			}
		}(w)
	}
	sentTrace := fmt.Sprintf("%032x", 0xfeed)
	echoed := ""
	for i := 0; i < 24; i++ {
		tid := ""
		if i == 0 {
			tid = sentTrace
		}
		_, echo := post(mkBody(smallCount, smallN, 1+float64(i)/1e3, 25), "rt", tid)
		if i == 0 {
			echoed = echo
		}
		time.Sleep(time.Millisecond)
	}
	wg.Wait()

	fmt.Printf("tenant workload: 48 heavy batch posts (no deadline) + 24 small rt posts (25ms deadline), heavy ≈ %v/dispatch\n",
		th.Round(10*time.Microsecond))
	fmt.Printf("traceparent 00-%s-... echoed as X-IATF-Trace: %s (match: %v)\n",
		sentTrace, echoed, echoed == sentTrace)

	fmt.Printf("%-8s %5s %10s %8s %5s %6s %6s %10s %6s\n",
		"tenant", "class", "objective", "requests", "sheds", "hits", "misses", "p99", "burn")
	for _, t := range srv.TenantStats() {
		obj := "-"
		if t.Objective > 0 {
			obj = t.Objective.String()
		}
		fmt.Printf("%-8s %5d %10s %8d %5d %6d %6d %10v %6.2f\n",
			t.Name, t.Class, obj, t.Requests, t.Sheds,
			t.DeadlineHits, t.DeadlineMisses, time.Duration(t.Latency.P99), t.BurnRate)
	}

	// The access log carries one JSON line per request, joined with its
	// engine span; show the line for the traceparent-tagged rt post. A
	// handler writes its line after the response is sent, so shut the
	// server down first: Shutdown returns once every handler has.
	hs.Shutdown(context.Background())
	for _, line := range bytes.Split(accessLog.Bytes(), []byte("\n")) {
		if bytes.Contains(line, []byte(sentTrace)) {
			fmt.Printf("access-log line for that trace:\n  %s\n", line)
			break
		}
	}
}

func main() {
	log.SetFlags(0)
	runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), 4))
	rng := rand.New(rand.NewSource(7))

	fmt.Println("== Phase 1: deadline-ordered dispatch (direct Submit) ==")
	phase1(rng)
	fmt.Println("== Phase 2: admission control over HTTP ==")
	phase2(rng)
	fmt.Println()
	fmt.Println("== Phase 3: per-tenant SLO accounting ==")
	phase3(rng)
}
