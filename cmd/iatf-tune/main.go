// iatf-tune pre-bakes the persistent autotune store for a machine
// profile: it resolves every requested problem identity through the
// engine's planning path — install-time kernel generation + list
// scheduling, run-time plan construction — without executing any FLOPs,
// and writes the resulting kernel/plan set to the profile's store file.
// A later process constructed with iatf.WithPlanStore on the same
// profile then starts warm: no first-call tuning latency for any baked
// shape.
//
//	iatf-tune                                 # default sweep, default store dir
//	iatf-tune -profile graviton2 -counts 1,64
//	iatf-tune -shapes gemm:f64:64x64x64,trsm:f32:32x16 -store /tmp/iatf
//
// Concurrent tuners are safe: each merges with the existing store file
// before an atomic rename, so parallel invocations converge on the
// union of their shape sets.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"iatf"
	"iatf/internal/core"
	"iatf/internal/engine"
	"iatf/internal/store"
	"iatf/internal/vec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("iatf-tune: ")

	storeDir := flag.String("store", "", "store directory (default: $IATF_STORE_DIR or the user cache dir)")
	profile := flag.String("profile", "kunpeng920",
		"machine profile to tune for: "+strings.Join(iatf.ProfileNames(), ", "))
	shapes := flag.String("shapes", "",
		"comma-separated shape list op:dtype:MxNxK[:flags] (default: built-in sweep);\n"+
			"ops gemm, trsm, trmm, syrk, cholesky, lu, lupiv; dtypes f32, f64;\n"+
			"flags tA tB (transpose), R (right side), U (upper), u (unit diagonal)")
	counts := flag.String("counts", "1,64", "comma-separated batch counts to bake (bucketed to powers of two;\n"+
		"factorizations bake once, at count bucket 1)")
	dry := flag.Bool("dry", false, "resolve and report, but do not write the store")
	flag.Parse()

	prof, ok := iatf.ProfileNamed(*profile)
	if !ok {
		log.Fatalf("unknown profile %q (have %s)", *profile, strings.Join(iatf.ProfileNames(), ", "))
	}
	countList, err := parseCounts(*counts)
	if err != nil {
		log.Fatal(err)
	}
	var descs []store.PlanDesc
	if *shapes != "" {
		if descs, err = parseShapes(*shapes, countList); err != nil {
			log.Fatal(err)
		}
	} else {
		descs = defaultSweep(countList)
	}

	tun := core.Tuning{Prof: prof}
	eng := engine.New(tun)
	dir := *storeDir
	if dir == "" {
		dir = store.DefaultDir()
	}
	path := store.PathFor(dir, eng.Fingerprint())

	start := time.Now()
	failed := 0
	for _, d := range descs {
		if err := eng.Warm(d); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "iatf-tune: skip %+v: %v\n", d, err)
		}
	}
	f := eng.Export("iatf-tune")
	baked := len(f.Plans) // descriptors whose counts share a bucket bake one plan
	if prev, err := store.Load(path, eng.Fingerprint()); err == nil {
		f.Merge(prev)
	} else if !errors.Is(err, fs.ErrNotExist) {
		// Stale or corrupt files are replaced, not merged; anything else
		// (e.g. permissions) will surface again at write time.
		if errors.Is(err, store.ErrMismatch) || errors.Is(err, store.ErrCorrupt) {
			fmt.Fprintf(os.Stderr, "iatf-tune: replacing existing store: %v\n", err)
		}
	}

	fmt.Printf("profile      %s\n", prof.Name)
	fmt.Printf("fingerprint  %s\n", eng.Fingerprint())
	fmt.Printf("store        %s\n", path)
	fmt.Printf("baked        %d plans (%d requested, %d rejected) in %v\n",
		baked, len(descs), failed, time.Since(start).Round(time.Millisecond))
	fmt.Printf("writing      %d plans, %d kernel schedules\n", len(f.Plans), len(f.Kernels))
	if *dry {
		fmt.Println("dry run: store not written")
		return
	}
	if err := f.WriteAtomic(path); err != nil {
		log.Fatalf("write store: %v", err)
	}
}

func parseCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no counts in %q", s)
	}
	return out, nil
}

var opKinds = map[string]engine.OpKind{
	"gemm": engine.OpGEMM, "trsm": engine.OpTRSM, "trmm": engine.OpTRMM,
	"syrk": engine.OpSYRK, "cholesky": engine.OpCholesky, "lu": engine.OpLU,
	"lupiv": engine.OpLUPiv,
}

var dtypes = map[string]vec.DType{"f32": vec.S, "f64": vec.D, "s": vec.S, "d": vec.D}

// parseShapes decodes the -shapes syntax into one descriptor per
// (shape, count), op:dtype:MxNxK[:flags]; a factorization, whose plan
// keys no count, gets one descriptor.
func parseShapes(s string, countList []int) ([]store.PlanDesc, error) {
	var out []store.PlanDesc
	for _, spec := range strings.Split(s, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		parts := strings.Split(spec, ":")
		if len(parts) < 3 {
			return nil, fmt.Errorf("bad shape %q: want op:dtype:MxNxK[:flags]", spec)
		}
		kind, ok := opKinds[parts[0]]
		if !ok {
			return nil, fmt.Errorf("bad shape %q: unknown op %q", spec, parts[0])
		}
		dt, ok := dtypes[parts[1]]
		if !ok {
			return nil, fmt.Errorf("bad shape %q: unknown dtype %q", spec, parts[1])
		}
		var dims []int
		for _, ds := range strings.Split(parts[2], "x") {
			n, err := strconv.Atoi(ds)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("bad shape %q: dimension %q", spec, ds)
			}
			dims = append(dims, n)
		}
		d := store.PlanDesc{Kind: int(kind), DType: int(dt)}
		switch kind {
		case engine.OpGEMM:
			if len(dims) != 3 {
				return nil, fmt.Errorf("bad shape %q: gemm wants MxNxK", spec)
			}
			d.M, d.N, d.K = dims[0], dims[1], dims[2]
		case engine.OpTRSM, engine.OpTRMM:
			if len(dims) != 2 {
				return nil, fmt.Errorf("bad shape %q: %s wants MxN", spec, parts[0])
			}
			d.M, d.N = dims[0], dims[1]
		case engine.OpSYRK:
			if len(dims) != 2 {
				return nil, fmt.Errorf("bad shape %q: syrk wants NxK", spec)
			}
			d.M, d.K = dims[0], dims[1]
		default: // factorizations: one square dimension
			if len(dims) != 1 {
				return nil, fmt.Errorf("bad shape %q: %s wants N", spec, parts[0])
			}
			d.M = dims[0]
		}
		for _, fl := range parts[3:] {
			switch fl {
			case "tA":
				d.TransA = 1
			case "tB":
				d.TransB = 1
			case "R":
				d.Side = 1
			case "U":
				d.Uplo = 1
			case "u":
				d.Diag = 1
			default:
				return nil, fmt.Errorf("bad shape %q: unknown flag %q", spec, fl)
			}
		}
		out = appendCounts(out, d, countList)
	}
	return out, nil
}

// appendCounts appends d once per batch count (Engine.Warm buckets it),
// or once for a factorization.
func appendCounts(out []store.PlanDesc, d store.PlanDesc, countList []int) []store.PlanDesc {
	switch engine.OpKind(d.Kind) {
	case engine.OpLU, engine.OpCholesky, engine.OpLUPiv:
		return append(out, d)
	}
	for _, c := range countList {
		d.CountBucket = c
		out = append(out, d)
	}
	return out
}

// defaultSweep covers the compact-BLAS working set: small square-ish
// problems across both dtypes, every op family, default mode flags.
func defaultSweep(countList []int) []store.PlanDesc {
	dims := []int{4, 8, 16, 32, 64}
	var out []store.PlanDesc
	for _, dt := range []vec.DType{vec.S, vec.D} {
		for _, n := range dims {
			for _, d := range []store.PlanDesc{
				{Kind: int(engine.OpGEMM), DType: int(dt), M: n, N: n, K: n},
				{Kind: int(engine.OpTRSM), DType: int(dt), M: n, N: n},
				{Kind: int(engine.OpTRMM), DType: int(dt), M: n, N: n},
				{Kind: int(engine.OpSYRK), DType: int(dt), M: n, K: n},
				{Kind: int(engine.OpCholesky), DType: int(dt), M: n},
				{Kind: int(engine.OpLU), DType: int(dt), M: n},
			} {
				out = appendCounts(out, d, countList)
			}
		}
	}
	return out
}
