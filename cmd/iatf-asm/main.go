// Command iatf-asm prints generated computing kernels as ARMv8-style
// assembly, before and after the kernel optimizer — the transformation the
// paper's Figure 5 illustrates on the 4×4 DGEMM TEMPLATE_I.
//
// Usage:
//
//	iatf-asm -op gemm -type d -mc 4 -nc 4 -k 4 [-template I] [-stages]
//	iatf-asm -op trsm-tri -type s -m 4 -ncols 4
//	iatf-asm -op trsm-rect -type d -mc 4 -nc 4 -k 8
//	iatf-asm -op gemm-amd64 > internal/kernels/gemm_amd64.s
//	iatf-asm -op trmm-amd64 > internal/kernels/trmm_amd64.s
//
// -op gemm-amd64 prints the Go assembly of the native amd64 GEMM main
// kernels (SSE2, and 256-bit AVX for s/d), and -op trmm-amd64 that of
// the s/d TRMM triangles
// (M ≤ 4) and 4×4 rectangles, lowered from the same templates;
// `go generate ./internal/kernels` writes both files.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"iatf/internal/asm"
	"iatf/internal/kopt"
	"iatf/internal/ktmpl"
	"iatf/internal/machine"
	"iatf/internal/vec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("iatf-asm: ")
	var (
		op     = flag.String("op", "gemm", "kernel kind: gemm, trsm-tri, trsm-rect, gemm-amd64, trmm-amd64")
		dtype  = flag.String("type", "d", "data type: s, d, c, z")
		mc     = flag.Int("mc", 4, "kernel rows")
		nc     = flag.Int("nc", 4, "kernel columns")
		k      = flag.Int("k", 4, "reduction length")
		m      = flag.Int("m", 4, "triangular kernel size")
		ncols  = flag.Int("ncols", 4, "triangular kernel column count")
		tplStr = flag.String("template", "", "print a single GEMM template: I, M1, M2, E, SUB, SAVE")
		stages = flag.Bool("stages", false, "show raw and optimized stages side by side info")
	)
	flag.Parse()

	if gen, ok := map[string]func() ([]byte, error){
		"gemm-amd64": ktmpl.GenGEMMAMD64,
		"trmm-amd64": ktmpl.GenTRMMAMD64,
	}[*op]; ok {
		src, err := gen()
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(src)
		return
	}

	dt, err := vec.ParseDType(*dtype)
	if err != nil {
		log.Fatal(err)
	}
	syn := asm.SyntaxFor(dt.ElemBytes())

	var prog asm.Prog
	switch *op {
	case "gemm":
		spec := ktmpl.GEMMSpec{DT: dt, MC: *mc, NC: *nc, K: *k, StrideC: *mc}
		if *tplStr != "" {
			tpl, err := parseTemplate(*tplStr)
			if err != nil {
				log.Fatal(err)
			}
			prog, err = ktmpl.GenGEMMTemplate(spec, tpl)
			if err != nil {
				log.Fatal(err)
			}
		} else {
			prog, err = ktmpl.GenGEMM(spec)
			if err != nil {
				log.Fatal(err)
			}
		}
	case "trsm-tri":
		prog, err = ktmpl.GenTRSMTri(ktmpl.TriSpec{DT: dt, M: *m, NCols: *ncols, StrideB: *m})
		if err != nil {
			log.Fatal(err)
		}
	case "trsm-rect":
		prog, err = ktmpl.GenTRSMRect(ktmpl.RectSpec{DT: dt, MC: *mc, NC: *nc, K: *k, StrideC: *mc, StrideX: *k})
		if err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown -op %q", *op)
	}

	opts := kopt.Options{Prof: machine.Kunpeng920(), ElemBytes: dt.ElemBytes(), Prefetch: true}
	if !*stages {
		fmt.Print(syn.FormatProg(kopt.Optimize(prog, opts)))
		return
	}

	fmt.Fprintf(os.Stdout, "=== original code (%d instructions, modeled %d cycles) ===\n",
		len(prog), kopt.Cost(prog, opts))
	fmt.Print(syn.FormatProg(prog))

	reordered := kopt.Optimize(prog, kopt.Options{Prof: opts.Prof, ElemBytes: opts.ElemBytes})
	fmt.Fprintf(os.Stdout, "\n=== after reordering + load interleaving (%d cycles) ===\n",
		kopt.Cost(reordered, opts))
	fmt.Print(syn.FormatProg(reordered))

	final := kopt.Optimize(prog, opts)
	fmt.Fprintf(os.Stdout, "\n=== with C prefetch (%d instructions, %d cycles) ===\n",
		len(final), kopt.Cost(final, opts))
	fmt.Print(syn.FormatProg(final))
}

func parseTemplate(s string) (ktmpl.TemplateID, error) {
	switch s {
	case "I":
		return ktmpl.TplI, nil
	case "M1":
		return ktmpl.TplM1, nil
	case "M2":
		return ktmpl.TplM2, nil
	case "E":
		return ktmpl.TplE, nil
	case "SUB":
		return ktmpl.TplSUB, nil
	case "SAVE":
		return ktmpl.TplSAVE, nil
	}
	return 0, fmt.Errorf("unknown template %q", s)
}
