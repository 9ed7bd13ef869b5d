// Command iatf-loc prints the code-size figures the roadmap tracks: the
// non-test Go lines of the module outside perfbench/, the same for
// internal/engine, and the exported symbols of the root package
// (declarations by go/ast, methods included). Run it from the module
// root (make loc).
package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	total, engine := 0, 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "perfbench" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n := bytes.Count(src, []byte("\n"))
		total += n
		if filepath.Dir(path) == filepath.Join("internal", "engine") {
			engine += n
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("non-test Go lines outside perfbench/: %d\n", total)
	fmt.Printf("internal/engine non-test Go lines:    %d\n", engine)
	fmt.Printf("exported root-package symbols:        %d\n", exportedRoot())
}

// exportedRoot counts the root package's exported top-level
// declarations: functions, methods, types, constants and variables.
func exportedRoot() int {
	entries, err := os.ReadDir(".")
	if err != nil {
		log.Fatal(err)
	}
	fset := token.NewFileSet()
	n := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			log.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() {
					n++
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							n++
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() {
								n++
							}
						}
					}
				}
			}
		}
	}
	return n
}
