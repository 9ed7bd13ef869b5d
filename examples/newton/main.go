// Newton example: solving many small independent nonlinear systems —
// chemical equilibrium cells, per-element constitutive laws, implicit
// time integrators — requires a small dense linear solve (J·dx = -F) per
// system per iteration. With thousands of systems of identical size this
// is exactly the compact batched LU + solve.
//
// The demo solves, for every cell k with parameter c_k ∈ (1, 2):
//
//	x² + y² = c_k²      (a circle of radius c_k)
//	x·y     = c_k²/4    (a hyperbola)
//
// by Newton's method with the batched LU factorization of all Jacobians
// per iteration, and verifies every residual.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	"iatf"
)

const (
	systems = 4096
	dim     = 2
)

func main() {
	log.SetFlags(0)
	useChain := flag.Bool("chain", false,
		"solve each iteration as one iatf.Chain (LU + two TRSMs) instead of separate LU + LUSolve calls")
	flag.Parse()
	rng := rand.New(rand.NewSource(5))

	c := make([]float64, systems)
	x := make([]float64, systems)
	y := make([]float64, systems)
	for k := range c {
		c[k] = 1 + rng.Float64()
		// Starting point away from the solution but in the right quadrant.
		x[k] = 1.5 * c[k]
		y[k] = 0.3 * c[k]
	}

	residual := func(k int) (f1, f2 float64) {
		f1 = x[k]*x[k] + y[k]*y[k] - c[k]*c[k]
		f2 = x[k]*y[k] - c[k]*c[k]/4
		return
	}

	var iters int
	var solveTime time.Duration
	for iters = 1; iters <= 50; iters++ {
		// Assemble all Jacobians and right-hand sides.
		jac := iatf.NewBatch[float64](systems, dim, dim)
		rhs := iatf.NewBatch[float64](systems, dim, 1)
		maxRes := 0.0
		for k := 0; k < systems; k++ {
			f1, f2 := residual(k)
			if r := math.Max(math.Abs(f1), math.Abs(f2)); r > maxRes {
				maxRes = r
			}
			jac.Set(k, 0, 0, 2*x[k])
			jac.Set(k, 0, 1, 2*y[k])
			jac.Set(k, 1, 0, y[k])
			jac.Set(k, 1, 1, x[k])
			rhs.Set(k, 0, 0, -f1)
			rhs.Set(k, 1, 0, -f2)
		}
		if maxRes < 1e-12 {
			break
		}
		// One batched factorization + solve for every system at once.
		cj, cr := iatf.Pack(jac), iatf.Pack(rhs)
		tSolve := time.Now()
		if *useChain {
			// The whole iteration as one call: each stage's execution
			// plan is built on the first iteration and hit in the plan
			// cache on every later one.
			err := iatf.Chain(context.Background(), []iatf.Stage[float64]{
				iatf.LUStage(cj),
				iatf.TRSMStage(iatf.Left, iatf.Lower, iatf.NoTrans, iatf.Unit, 1, cj, cr),
				iatf.TRSMStage(iatf.Left, iatf.Upper, iatf.NoTrans, iatf.NonUnit, 1, cj, cr),
			})
			var ce *iatf.ChainError
			if errors.As(err, &ce) && errors.Is(err, iatf.ErrSingular) {
				for k, code := range ce.Info {
					if code != 0 {
						log.Fatalf("system %d: singular Jacobian at column %d", k, code-1)
					}
				}
			}
			if err != nil {
				log.Fatal(err)
			}
		} else {
			info, err := iatf.LU(cj)
			if err != nil {
				log.Fatal(err)
			}
			for k, code := range info {
				if code != 0 {
					log.Fatalf("system %d: singular Jacobian at column %d", k, code-1)
				}
			}
			if err := iatf.LUSolve(cj, cr); err != nil {
				log.Fatal(err)
			}
		}
		solveTime += time.Since(tSolve)
		dx := cr.Unpack()
		for k := 0; k < systems; k++ {
			x[k] += dx.At(k, 0, 0)
			y[k] += dx.At(k, 1, 0)
		}
	}

	worst := 0.0
	for k := 0; k < systems; k++ {
		f1, f2 := residual(k)
		worst = math.Max(worst, math.Max(math.Abs(f1), math.Abs(f2)))
	}
	fmt.Printf("Newton on %d independent %dx%d systems\n", systems, dim, dim)
	fmt.Printf("converged in %d iterations, worst residual %.3e\n", iters, worst)
	if worst > 1e-10 {
		log.Fatal("did not converge")
	}
	mode := "separate LU + LUSolve calls"
	if *useChain {
		mode = "one iatf.Chain (LU + 2 TRSMs)"
	}
	fmt.Printf("solve wallclock: %v total, %v per iteration (%s)\n",
		solveTime.Round(time.Microsecond), (solveTime / time.Duration(iters)).Round(time.Microsecond), mode)
	fmt.Println("OK — every iteration was one batched factor + solve")
}
