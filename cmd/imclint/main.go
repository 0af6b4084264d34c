// Command imclint runs the testbed's determinism analyzers (eventorder,
// maprange, metricsnil, nondetflow, profnil, sharedmut, stalewaiver —
// see internal/lint) over Go packages.
//
// Standalone (what `make lint` runs):
//
//	imclint ./...
//
// prints findings as file:line:col: analyzer: message and exits 2 when
// there are any, so CI fails on the first order-dependent map walk or
// wall-clock call that sneaks into modelled code. With -json the report
// is a sorted JSON array instead (stable byte-for-byte across runs);
// -o FILE writes the report to FILE — findings still echo to stdout so
// a failing CI log shows them inline.
//
// As a vet tool:
//
//	go vet -vettool=$(go env GOPATH)/bin/imclint ./...
//
// imclint speaks cmd/go's unitchecker protocol: it answers the -V=full
// build-ID handshake, accepts a *.cfg JSON file describing one package
// unit, resolves imports from the export data the go command already
// built, and reads/writes per-package facts files (PackageVetx /
// VetxOutput) so inter-procedural facts — nondetflow's taint — flow
// across package units exactly as they do in the standalone driver.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/importer"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/imcstudy/imcstudy/internal/lint"
	"github.com/imcstudy/imcstudy/internal/lint/analysis"
	"github.com/imcstudy/imcstudy/internal/lint/load"
)

func main() {
	args := os.Args[1:]
	// cmd/go probes the tool's identity before trusting it with a unit.
	if len(args) == 1 && args[0] == "-V=full" {
		fmt.Println("imclint version 1.0.0")
		return
	}
	// `go vet` asks for the tool's flag schema before the first unit;
	// the suite exposes no tool-level flags.
	if len(args) == 1 && args[0] == "-flags" {
		fmt.Println("[]")
		return
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runUnit(args[0]))
	}
	os.Exit(runStandalone(args))
}

// jsonFinding is the -json wire form of one diagnostic. Paths are
// cwd-relative when possible so reports are comparable across checkouts.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// runStandalone loads the given package patterns (default ./...) and
// applies the suite.
func runStandalone(args []string) int {
	fs := flag.NewFlagSet("imclint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit findings as a sorted JSON array")
	outFile := fs.String("o", "", "write the report to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ld, err := load.New(".", fs.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	pkgs, err := ld.Targets()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	diags, err := lint.Run(pkgs, lint.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	cwd, _ := os.Getwd()
	var report strings.Builder
	if *jsonOut {
		findings := make([]jsonFinding, 0, len(diags)) // non-nil: clean trees encode as []
		for _, d := range diags {
			p := ld.Fset().Position(d.Pos)
			findings = append(findings, jsonFinding{
				File:     relPath(cwd, p.Filename),
				Line:     p.Line,
				Col:      p.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc, err := json.MarshalIndent(findings, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "imclint:", err)
			return 1
		}
		report.Write(enc)
		report.WriteByte('\n')
	} else {
		for _, d := range diags {
			report.WriteString(format(ld.Fset(), cwd, d))
			report.WriteByte('\n')
		}
	}
	if *outFile != "" {
		if err := os.WriteFile(*outFile, []byte(report.String()), 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "imclint:", err)
			return 1
		}
		// The report went to a file; still surface findings in the log.
		for _, d := range diags {
			fmt.Println(format(ld.Fset(), cwd, d))
		}
	} else {
		os.Stdout.WriteString(report.String())
	}
	if len(diags) == 0 {
		return 0
	}
	return 2
}

// relPath shortens name relative to base when that stays inside base.
func relPath(base, name string) string {
	if base == "" {
		return name
	}
	if rel, err := filepath.Rel(base, name); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return name
}

// vetConfig mirrors the fields of cmd/go's vet configuration JSON that
// the suite needs (see $GOROOT/src/cmd/go/internal/work/exec.go).
type vetConfig struct {
	ID          string
	Dir         string
	ImportPath  string
	GoVersion   string
	GoFiles     []string
	ImportMap   map[string]string
	PackageFile map[string]string
	PackageVetx map[string]string // dependency import path -> its facts file
	Standard    map[string]bool   // set of standard-library import paths
	VetxOnly    bool              // facts wanted, diagnostics not
	VetxOutput  string            // where to write this unit's facts

	SucceedOnTypecheckFailure bool
}

// stdlibUnit reports whether a vet unit describes a standard-library
// package. cmd/go's Standard map covers only the unit's *dependencies*,
// never the unit itself, so the unit's own path is classified the way
// the go command does internally: stdlib import paths have no dot in
// their first segment ("math/rand", "os", "vendor/golang.org/...")
// while module paths start with a dotted domain.
func stdlibUnit(cfg *vetConfig) bool {
	if cfg.Standard[cfg.ImportPath] {
		return true
	}
	seg := cfg.ImportPath
	if i := strings.Index(seg, "/"); i >= 0 {
		seg = seg[:i]
	}
	return !strings.Contains(seg, ".")
}

// writeFacts serializes the unit's facts where cmd/go expects them.
// cmd/go content-hashes this file into its cache key, so the encoding
// must be deterministic (FactStore.EncodePackage sorts).
func (cfg *vetConfig) writeFacts(store *analysis.FactStore) error {
	if cfg.VetxOutput == "" {
		return nil
	}
	data, err := store.EncodePackage(cfg.ImportPath)
	if err != nil {
		return err
	}
	return os.WriteFile(cfg.VetxOutput, data, 0o666)
}

// runUnit analyzes one package unit described by a vet .cfg file.
func runUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "imclint:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "imclint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// Standard-library units carry no imclint facts: the analyzers treat
	// stdlib nondeterminism roots (time.Now, os.Getenv, ...) as
	// intrinsics, matching the standalone driver, which never re-checks
	// stdlib source either. (Analyzing stdlib source would also poison
	// legitimate API: math/rand.NewSource calls unexported tainted
	// helpers, so a facts pass over it would mark the seeded-source
	// constructor itself nondeterministic.) An empty facts file keeps
	// the protocol happy.
	if stdlibUnit(&cfg) {
		if err := cfg.writeFacts(analysis.NewFactStore()); err != nil {
			fmt.Fprintln(os.Stderr, "imclint:", err)
			return 1
		}
		return 0
	}
	// Seed the store with the facts of every dependency unit cmd/go
	// already ran; units arrive in dependency order so these exist.
	store := analysis.NewFactStore()
	vetxPaths := make([]string, 0, len(cfg.PackageVetx))
	for path := range cfg.PackageVetx {
		vetxPaths = append(vetxPaths, path)
	}
	sort.Strings(vetxPaths)
	for _, path := range vetxPaths {
		fdata, err := os.ReadFile(cfg.PackageVetx[path])
		if err != nil {
			fmt.Fprintln(os.Stderr, "imclint:", err)
			return 1
		}
		if err := store.DecodePackage(path, fdata); err != nil {
			fmt.Fprintln(os.Stderr, "imclint:", err)
			return 1
		}
	}
	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		if canon, ok := cfg.ImportMap[path]; ok {
			path = canon
		}
		f, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	ld := load.FromImporter(fset, importer.ForCompiler(fset, "gc", lookup), majorMinor(cfg.GoVersion))
	pkg, err := ld.Check(cfg.ImportPath, cfg.Dir, cfg.GoFiles)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			// cmd/go still wants the facts file; an empty one is honest
			// here — no analysis happened.
			if werr := cfg.writeFacts(analysis.NewFactStore()); werr != nil {
				fmt.Fprintln(os.Stderr, "imclint:", werr)
				return 1
			}
			return 0
		}
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	// VetxOnly units (pure dependencies) still run the Facts phase —
	// that is the entire point of the facts file — they just skip
	// diagnostics.
	diags, err := lint.RunPackage(store, pkg, lint.Analyzers(), !cfg.VetxOnly)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := cfg.writeFacts(store); err != nil {
		fmt.Fprintln(os.Stderr, "imclint:", err)
		return 1
	}
	if len(diags) == 0 {
		return 0
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, format(fset, "", d))
	}
	return 2
}

// majorMinor trims "go1.22.5" to the "go1.22" form go/types accepts.
func majorMinor(v string) string {
	parts := strings.SplitN(v, ".", 3)
	if len(parts) < 2 {
		return v
	}
	return parts[0] + "." + parts[1]
}

// format renders one diagnostic, with paths relative to base when that
// is shorter (the standalone CLI case).
func format(fset *token.FileSet, base string, d analysis.Diagnostic) string {
	p := fset.Position(d.Pos)
	return fmt.Sprintf("%s:%d:%d: %s: %s", relPath(base, p.Filename), p.Line, p.Column, d.Analyzer, d.Message)
}
