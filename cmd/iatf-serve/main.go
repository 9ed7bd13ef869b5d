// iatf-serve is the SLO-aware serving front-end: it mounts the
// internal/serve HTTP tier (POST /v1/do plus /healthz, /stats, /tenants
// and /metrics) over one engine or a sharded engine set, with EDF
// dispatch, a tunable max-batch-window, admission control driven by the
// queue's depth high-water mark and wait histogram, W3C traceparent
// propagation (every response echoes X-IATF-Trace), and per-tenant SLO
// accounting.
//
//	iatf-serve -addr :8080 -shards 4 -window 2ms \
//	    -tenant batch=-1:50:0.9 -tenant rt=5:10:0.999 -access-log -
//
// -once runs the self-contained smoke: the server comes up on an
// ephemeral port, one traceparent-tagged GEMM round-trips through it
// over real HTTP, the result, trace echo and tenant accounting are
// verified and the process exits — the CI liveness check.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"iatf"
	"iatf/internal/serve"
)

// tenantFlag accumulates repeated -tenant name=class[:objective_ms[:target]]
// specs (iatf.ParseTenantSpec syntax).
type tenantFlag map[string]iatf.TenantObjective

func (t tenantFlag) String() string {
	parts := make([]string, 0, len(t))
	for k, v := range t {
		parts = append(parts, fmt.Sprintf("%s=%d:%g:%g", k, v.Class,
			float64(v.Objective)/float64(time.Millisecond), v.Target))
	}
	return strings.Join(parts, ",")
}

func (t tenantFlag) Set(s string) error {
	name, obj, err := iatf.ParseTenantSpec(s)
	if err != nil {
		return err
	}
	t[name] = obj
	return nil
}

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		shards    = flag.Int("shards", 0, "engine-set shard count (0 = one private engine)")
		window    = flag.Duration("window", 2*time.Millisecond, "dispatcher max-batch-window (0 = drain immediately)")
		edf       = flag.Bool("edf", true, "deadline-ordered dispatch (false = FIFO drain)")
		queueCap  = flag.Int("queue-cap", 0, "submission-queue capacity per shard (0 = engine default)")
		deadline  = flag.Duration("deadline", 0, "default request deadline when the body carries none (0 = none)")
		planStore = flag.String("plan-store", "", "warm-start from a persistent autotune store directory (\"default\" = the default dir; pre-bake with iatf-tune)")
		accessLog = flag.String("access-log", "", "structured JSON access log destination (\"-\" = stdout, else a file path; empty = off)")
		once      = flag.Bool("once", false, "serve on an ephemeral port, run one GEMM through it, exit")
		tenants   = tenantFlag{}
	)
	flag.Var(tenants, "tenant", "tenant SLO spec name=class[:objective_ms[:target]] (repeatable)")
	flag.Parse()

	opts := []iatf.EngineOption{
		iatf.WithEDF(*edf),
		iatf.WithBatchWindow(*window),
	}
	if *queueCap > 0 {
		opts = append(opts, iatf.WithQueueCapacity(*queueCap))
	}
	if *planStore != "" {
		dir := *planStore
		if dir == "default" {
			dir = ""
		}
		opts = append(opts, iatf.WithPlanStore(dir))
	}

	// Tenants is always non-nil here (the zero tenantFlag is an empty
	// map), so per-tenant accounting is on even before the first -tenant
	// flag: unknown origins land in zero-objective series.
	cfg := serve.Config{DefaultDeadline: *deadline, Tenants: tenants}
	switch *accessLog {
	case "":
	case "-":
		cfg.AccessLog = os.Stdout
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("access-log: %v", err)
		}
		defer f.Close()
		cfg.AccessLog = f
	}
	// -shards 0 and 1 both serve one engine: a set of one shard.
	cfg.Engine = iatf.NewEngineSet(max(*shards, 1), opts...).Engine
	if *planStore != "" {
		log.Printf("plan store %s: %d plans hydrated", cfg.Engine.StorePath(), cfg.Engine.Stats().PlanHydrated)
	}
	srv := serve.New(cfg)

	if *once {
		if err := smoke(srv); err != nil {
			log.Fatalf("smoke: %v", err)
		}
		fmt.Println("iatf-serve smoke ok")
		return
	}

	log.Printf("iatf-serve listening on %s (shards=%d edf=%v window=%v)",
		*addr, *shards, *edf, *window)
	log.Fatal(http.ListenAndServe(*addr, srv.Handler()))
}

// smoke round-trips one 2-matrix GEMM over real HTTP and verifies the
// result numerically (identity × A must return A), the traceparent echo
// on X-IATF-Trace, and the /tenants accounting for the tagged request.
func smoke(srv *serve.Server) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	// healthz first: the tier must be up before we push work.
	hr, err := http.Get(base + "/healthz")
	if err != nil {
		return err
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", hr.Status)
	}

	const count, n = 2, 4
	ident := make([]float64, count*n*n)
	data := make([]float64, count*n*n)
	for m := 0; m < count; m++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				if i == j {
					ident[m*n*n+j*n+i] = 1
				}
				data[m*n*n+j*n+i] = float64(m*100 + j*n + i)
			}
		}
	}
	req := serve.DoRequest{
		Op: "gemm", DType: "f64", Alpha: 1, Beta: 0, Count: count,
		A:          &serve.WireOperand{Rows: n, Cols: n, Data: ident},
		B:          &serve.WireOperand{Rows: n, Cols: n, Data: data},
		C:          &serve.WireOperand{Rows: n, Cols: n, Data: make([]float64, count*n*n)},
		DeadlineMs: 5000,
	}
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	body, _ := json.Marshal(req)
	hreq, _ := http.NewRequest(http.MethodPost, base+"/v1/do", bytes.NewReader(body))
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
	hreq.Header.Set("X-IATF-Tenant", "smoke")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-IATF-Trace"); got != traceID {
		return fmt.Errorf("X-IATF-Trace = %q, want %q", got, traceID)
	}
	if resp.StatusCode != http.StatusOK {
		var eb map[string]any
		json.NewDecoder(resp.Body).Decode(&eb)
		return fmt.Errorf("/v1/do: %s: %v", resp.Status, eb)
	}
	var out serve.DoResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return err
	}
	if len(out.Result) != len(data) {
		return fmt.Errorf("result length %d, want %d", len(out.Result), len(data))
	}
	for i := range data {
		if math.Abs(out.Result[i]-data[i]) > 1e-12 {
			return fmt.Errorf("result[%d] = %g, want %g", i, out.Result[i], data[i])
		}
	}

	sr, err := http.Get(base + "/stats")
	if err != nil {
		return err
	}
	defer sr.Body.Close()
	var st serve.Stats
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		return err
	}
	if st.Done != 1 {
		return fmt.Errorf("stats done = %d, want 1", st.Done)
	}

	tr, err := http.Get(base + "/tenants")
	if err != nil {
		return err
	}
	defer tr.Body.Close()
	var ts []iatf.TenantStats
	if err := json.NewDecoder(tr.Body).Decode(&ts); err != nil {
		return fmt.Errorf("/tenants: %w", err)
	}
	for _, t := range ts {
		if t.Name == "smoke" && t.Requests == 1 {
			return nil
		}
	}
	return fmt.Errorf("/tenants: no series for tenant %q with 1 request (got %v)", "smoke", ts)
}
