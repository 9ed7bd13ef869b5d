// Per-tenant SLO accounting: the same input-aware discipline the
// per-shape series apply to problem descriptors, applied to the caller
// identity. A TenantTable keeps one rolling TenantSeries per origin —
// requests/errors/sheds, deadline hits vs misses, a log2 latency
// histogram, and a sliding-window burn rate against the tenant's
// configured objective — fed from FinishSpan, so every resolution path
// (sync, async, expiry in the queue, queue-full rejection)
// lands in the same ledger with zero extra plumbing at the call sites.
//
// Everything on the record path is lock-free after a tenant's first
// request (atomics behind an RLock map access), and the whole layer is
// gated on Span.Origin: untagged requests pay a nil-string check, tagged
// requests on an engine without a table pay one atomic pointer load.

package obs

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TenantObjective is one tenant's serving contract: the EDF dispatch
// class, the per-request latency objective (the deadline-miss bar for
// requests that carry no explicit context deadline), and the SLO
// attainment target the burn rate is computed against (e.g. 0.99 =
// "99% of requests in the window neither shed nor miss"). The zero
// value means "tracked, no SLO": requests are counted but the burn
// rate stays 0.
type TenantObjective struct {
	Class     int           `json:"class"`
	Objective time.Duration `json:"objective_ns,omitempty"`
	Target    float64       `json:"target,omitempty"`
}

// Sliding-window geometry for the burn-rate gauge: 15 buckets of 4s —
// a ~60s window, coarse enough that bucket turnover is cheap (one CAS
// per tenant per 4s) and fine enough that a burst's burn decays
// smoothly instead of cliff-dropping.
const (
	tenantWindowBuckets = 15
	tenantBucketSecs    = 4
)

// maxTenants bounds the table against client-controlled origin strings:
// past the cap, unknown tenants fold into the TenantOverflow series so a
// header-spraying client cannot grow the map unboundedly.
const maxTenants = 256

// TenantOverflow is the fold-in series name for origins beyond the
// maxTenants cap.
const TenantOverflow = "_other"

// tenantBucket is one sliding-window cell: an epoch stamp (unix seconds
// / tenantBucketSecs) plus the window counters recorded during it.
type tenantBucket struct {
	epoch    atomic.Int64
	requests atomic.Uint64
	bad      atomic.Uint64 // sheds + deadline misses
}

// TenantSeries is the rolling per-tenant state. All fields are atomic;
// recording is safe for concurrent use.
type TenantSeries struct {
	requests atomic.Uint64
	errors   atomic.Uint64
	sheds    atomic.Uint64
	hits     atomic.Uint64 // deadline hits (completed within budget)
	misses   atomic.Uint64 // deadline misses (expired, or completed late)
	lat      Hist
	win      [tenantWindowBuckets]tenantBucket
}

// window records one request into the sliding window. A bucket whose
// epoch is stale is claimed by CAS and zeroed; an observation racing the
// reset may be lost, which the windowed burn gauge tolerates (same
// contract as Hist.Reset).
func (t *TenantSeries) window(now time.Time, bad bool) {
	ep := now.Unix() / tenantBucketSecs
	b := &t.win[int(ep%tenantWindowBuckets)]
	for {
		old := b.epoch.Load()
		if old == ep {
			break
		}
		if b.epoch.CompareAndSwap(old, ep) {
			b.requests.Store(0)
			b.bad.Store(0)
			break
		}
	}
	b.requests.Add(1)
	if bad {
		b.bad.Add(1)
	}
}

// windowCounts sums the live buckets of the sliding window.
func (t *TenantSeries) windowCounts(now time.Time) (requests, bad uint64) {
	ep := now.Unix() / tenantBucketSecs
	oldest := ep - tenantWindowBuckets + 1
	for i := range t.win {
		b := &t.win[i]
		if e := b.epoch.Load(); e >= oldest && e <= ep {
			requests += b.requests.Load()
			bad += b.bad.Load()
		}
	}
	return requests, bad
}

// TenantSnapshot is a point-in-time view of one tenant's series,
// JSON-exportable. BurnRate is the fraction of the tenant's SLO error
// budget being consumed in the sliding window: bad/requests divided by
// the budget (1 - Target); 1.0 means burning exactly at budget, >1
// means the SLO fails if the window's rate holds.
type TenantSnapshot struct {
	Name string `json:"tenant"`

	// Shard is the EngineSet shard the series was recorded on
	// (-1 = not shard-attached, including the merged aggregate view).
	Shard int `json:"shard"`

	Class     int           `json:"class"`
	Objective time.Duration `json:"objective_ns,omitempty"`
	Target    float64       `json:"target,omitempty"`

	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors,omitempty"`
	Sheds    uint64 `json:"sheds,omitempty"`

	DeadlineHits   uint64 `json:"deadline_hits"`
	DeadlineMisses uint64 `json:"deadline_misses"`

	Latency HistSnapshot `json:"latency"`

	WindowRequests uint64  `json:"window_requests"`
	WindowBad      uint64  `json:"window_bad"`
	BurnRate       float64 `json:"burn_rate"`
}

// burnRate computes the window's budget-consumption rate.
func burnRate(requests, bad uint64, target float64) float64 {
	if requests == 0 || target <= 0 || target >= 1 {
		return 0
	}
	return (float64(bad) / float64(requests)) / (1 - target)
}

func (t *TenantSeries) snapshot(name string, obj TenantObjective, shard int, now time.Time) TenantSnapshot {
	wr, wb := t.windowCounts(now)
	return TenantSnapshot{
		Name:           name,
		Shard:          shard,
		Class:          obj.Class,
		Objective:      obj.Objective,
		Target:         obj.Target,
		Requests:       t.requests.Load(),
		Errors:         t.errors.Load(),
		Sheds:          t.sheds.Load(),
		DeadlineHits:   t.hits.Load(),
		DeadlineMisses: t.misses.Load(),
		Latency:        t.lat.Snapshot(),
		WindowRequests: wr,
		WindowBad:      wb,
		BurnRate:       burnRate(wr, wb, obj.Target),
	}
}

// tenantEntry pairs a tenant's series with its configured objective.
type tenantEntry struct {
	series *TenantSeries
	obj    TenantObjective
}

// tenantTable maps origins to their series. Configured tenants are
// installed up front; unknown origins auto-create zero-objective series
// on first sight (capped at maxTenants, overflow folds into _other).
type tenantTable struct {
	mu sync.RWMutex
	m  map[string]*tenantEntry
}

func newTenantTable(cfg map[string]TenantObjective) *tenantTable {
	tt := &tenantTable{m: make(map[string]*tenantEntry, len(cfg)+1)}
	for name, obj := range cfg {
		tt.m[name] = &tenantEntry{series: &TenantSeries{}, obj: obj}
	}
	return tt
}

// entry returns the series for an origin, creating an untracked-tenant
// series on first sight (read-locked lookup once seen).
func (tt *tenantTable) entry(name string) *tenantEntry {
	tt.mu.RLock()
	e := tt.m[name]
	tt.mu.RUnlock()
	if e != nil {
		return e
	}
	tt.mu.Lock()
	defer tt.mu.Unlock()
	if e = tt.m[name]; e != nil {
		return e
	}
	if len(tt.m) >= maxTenants {
		if e = tt.m[TenantOverflow]; e == nil {
			e = &tenantEntry{series: &TenantSeries{}}
			tt.m[TenantOverflow] = e
		}
		return e
	}
	e = &tenantEntry{series: &TenantSeries{}}
	tt.m[name] = e
	return e
}

// shedErrs holds the sentinel errors that classify a request outcome as
// a shed (load rejected before execution) rather than a plain error.
// Registered at init time by the layers that own the sentinels (the
// engine's ErrQueueFull), so obs stays import-cycle-free.
var shedErrs struct {
	mu   sync.RWMutex
	errs []error
}

// RegisterShedError marks err (matched via errors.Is) as a shed outcome
// for tenant accounting. Intended for init-time registration.
func RegisterShedError(err error) {
	if err == nil {
		return
	}
	shedErrs.mu.Lock()
	shedErrs.errs = append(shedErrs.errs, err)
	shedErrs.mu.Unlock()
}

func isShed(err error) bool {
	shedErrs.mu.RLock()
	defer shedErrs.mu.RUnlock()
	for _, s := range shedErrs.errs {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}

// record classifies one resolved span into its origin's series:
//
//   - success within the deadline budget (the span's own deadline, or
//     the tenant's configured objective when the request carried none)
//     counts a deadline hit; success over budget counts a miss; success
//     with no budget at all counts neither;
//   - context expiry/cancellation counts a miss;
//   - a registered shed sentinel (queue full, admission shed) counts a
//     shed;
//   - anything else counts a plain error — burned requests are only
//     misses + sheds, so a validation error cannot torch an SLO.
func (tt *tenantTable) record(sp *Span, err error) {
	e := tt.entry(sp.Origin)
	ts := e.series
	ts.requests.Add(1)
	bad := false
	switch {
	case err == nil:
		d := sp.Duration()
		ts.lat.Observe(d)
		budget := sp.Deadline
		if budget == 0 {
			budget = e.obj.Objective
		}
		switch {
		case budget <= 0: // untimed request on an objective-less tenant
		case d > budget:
			ts.misses.Add(1)
			bad = true
		default:
			ts.hits.Add(1)
		}
	case isShed(err):
		ts.sheds.Add(1)
		bad = true
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		ts.misses.Add(1)
		bad = true
	default:
		ts.errors.Add(1)
	}
	ts.window(sp.End, bad)
}

// SetTenants installs (or replaces) the registry's tenant table with the
// given objectives, enabling per-tenant accounting: every finished span
// carrying an Origin is classified into its tenant's series. Unlisted
// origins are tracked with a zero objective. nil disables accounting and
// restores the one-atomic-load cost for tagged requests.
func (r *Registry) SetTenants(cfg map[string]TenantObjective) {
	if cfg == nil {
		r.tenants.Store(nil)
		return
	}
	r.tenants.Store(newTenantTable(cfg))
}

// TenantsEnabled reports whether a tenant table is installed (one
// atomic load).
func (r *Registry) TenantsEnabled() bool { return r.tenants.Load() != nil }

// RecordTenantShed accounts one admission-control shed for a tenant — a
// request rejected before it was ever submitted, so no span exists to
// carry it. No-op when accounting is disabled or name is empty.
func (r *Registry) RecordTenantShed(name string) {
	if name == "" {
		return
	}
	tt := r.tenants.Load()
	if tt == nil {
		return
	}
	ts := tt.entry(name).series
	ts.requests.Add(1)
	ts.sheds.Add(1)
	ts.window(time.Now(), true)
}

// TenantSnapshots returns a point-in-time view of every tenant series,
// sorted by request count descending (name-tied for determinism). Nil
// when accounting is disabled.
func (r *Registry) TenantSnapshots() []TenantSnapshot {
	tt := r.tenants.Load()
	if tt == nil {
		return nil
	}
	shard := int(r.shard.Load())
	now := time.Now()
	tt.mu.RLock()
	out := make([]TenantSnapshot, 0, len(tt.m))
	for name, e := range tt.m {
		out = append(out, e.series.snapshot(name, e.obj, shard, now))
	}
	tt.mu.RUnlock()
	sortTenants(out)
	return out
}

func sortTenants(out []TenantSnapshot) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Requests != out[j].Requests {
			return out[i].Requests > out[j].Requests
		}
		return out[i].Name < out[j].Name
	})
}

// AggregateTenants merges per-shard tenant snapshots into one
// cross-shard view keyed by tenant name: counters and window counts
// sum, latency histograms merge bucket-wise (so the merged p50/p99 are
// exact, unlike the shape aggregate), the burn rate is recomputed from
// the summed window, and the objective comes from any shard carrying a
// non-zero one (all shards share the configuration). Merged rows carry
// Shard = -1.
func AggregateTenants(perShard ...[]TenantSnapshot) []TenantSnapshot {
	m := make(map[string]*TenantSnapshot)
	var order []string
	for _, shard := range perShard {
		for i := range shard {
			s := &shard[i]
			t := m[s.Name]
			if t == nil {
				cp := *s
				cp.Shard = -1
				m[s.Name] = &cp
				order = append(order, s.Name)
				continue
			}
			t.Requests += s.Requests
			t.Errors += s.Errors
			t.Sheds += s.Sheds
			t.DeadlineHits += s.DeadlineHits
			t.DeadlineMisses += s.DeadlineMisses
			t.Latency.Add(s.Latency)
			t.WindowRequests += s.WindowRequests
			t.WindowBad += s.WindowBad
			if t.Objective == 0 {
				t.Objective = s.Objective
			}
			if t.Target == 0 {
				t.Target = s.Target
			}
			if s.Class != 0 && t.Class == 0 {
				t.Class = s.Class
			}
		}
	}
	out := make([]TenantSnapshot, 0, len(order))
	for _, name := range order {
		t := m[name]
		t.BurnRate = burnRate(t.WindowRequests, t.WindowBad, t.Target)
		out = append(out, *t)
	}
	sortTenants(out)
	return out
}
