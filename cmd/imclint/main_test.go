package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestVetToolProtocol builds imclint and drives it the way cmd/go
// does: the -V=full identity handshake, the -flags schema probe, and a
// real `go vet -vettool` run over a leaf package.
func TestVetToolProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and invokes go vet")
	}
	tool := filepath.Join(t.TempDir(), "imclint")
	build := exec.Command("go", "build", "-o", tool, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building imclint: %v\n%s", err, out)
	}

	out, err := exec.Command(tool, "-V=full").Output()
	if err != nil {
		t.Fatalf("-V=full: %v", err)
	}
	if f := strings.Fields(string(out)); len(f) < 3 || f[1] != "version" {
		t.Fatalf("-V=full output %q does not satisfy cmd/go's buildID parser", out)
	}

	out, err = exec.Command(tool, "-flags").Output()
	if err != nil {
		t.Fatalf("-flags: %v", err)
	}
	if !bytes.HasPrefix(bytes.TrimSpace(out), []byte("[")) {
		t.Fatalf("-flags must print a JSON flag array, got %q", out)
	}

	vet := exec.Command("go", "vet", "-vettool="+tool, "./internal/metrics", "./internal/staging")
	vet.Dir = filepath.Join("..", "..")
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool on clean packages failed: %v\n%s", err, out)
	}
}

// buildTool compiles imclint into a temp dir and returns its path.
func buildTool(t *testing.T) string {
	t.Helper()
	tool := filepath.Join(t.TempDir(), "imclint")
	if out, err := exec.Command("go", "build", "-o", tool, ".").CombinedOutput(); err != nil {
		t.Fatalf("building imclint: %v\n%s", err, out)
	}
	return tool
}

// writeLaunderModule materializes the canonical laundering scenario as
// a standalone module: hostutil (outside modelled scope) wraps
// time.Now, and a package whose path contains "staging" (modelled
// scope) calls the wrapper. Intra-package this is the exact hole a
// direct-call check cannot see; only the cross-package facts pass can.
func writeLaunderModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module example.com/launder\n\ngo 1.22\n",
		"hostutil/hostutil.go": `package hostutil

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`,
		"staging/staging.go": `package staging

import "example.com/launder/hostutil"

func Tick() int64 { return hostutil.Stamp() }
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// launderFindingRE extracts the position and message of the expected
// finding, path-prefix-independently, so standalone and vet output can
// be compared verbatim.
var launderFindingRE = regexp.MustCompile(`staging\.go:(\d+:\d+): nondetflow: (.+)`)

// TestLaunderingFailsBothModes is the regression test for the
// laundering hole: the wrapped-clock module must fail imclint in
// standalone mode AND under go vet -vettool, and the two drivers must
// agree on the finding — proving facts survive the vetx round trip.
func TestLaunderingFailsBothModes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and invokes go vet")
	}
	tool := buildTool(t)
	dir := writeLaunderModule(t)

	extract := func(mode string, out []byte) []string {
		m := launderFindingRE.FindAllStringSubmatch(string(out), -1)
		if len(m) == 0 {
			t.Fatalf("%s mode produced no nondetflow finding for staging.go:\n%s", mode, out)
		}
		findings := make([]string, len(m))
		for i, g := range m {
			findings[i] = g[1] + ": " + g[2]
		}
		return findings
	}

	standalone := exec.Command(tool, "./...")
	standalone.Dir = dir
	out, err := standalone.CombinedOutput()
	if err == nil {
		t.Fatalf("standalone imclint passed the laundering module:\n%s", out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("standalone imclint: want exit 2 on findings, got %v\n%s", err, out)
	}
	fromStandalone := extract("standalone", out)

	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = dir
	out, err = vet.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool passed the laundering module:\n%s", out)
	}
	fromVet := extract("vet", out)

	if strings.Join(fromStandalone, "\n") != strings.Join(fromVet, "\n") {
		t.Fatalf("drivers disagree:\nstandalone:\n%s\nvet:\n%s",
			strings.Join(fromStandalone, "\n"), strings.Join(fromVet, "\n"))
	}
	if !strings.Contains(fromStandalone[0], "hostutil.Stamp") ||
		!strings.Contains(fromStandalone[0], "time.Now") {
		t.Fatalf("finding lacks the witness chain: %s", fromStandalone[0])
	}
}

// TestJSONReport checks the machine-readable output: a sorted, stable
// JSON array on findings, a literal [] on a clean tree, and -o writing
// the report file CI uploads as an artifact.
func TestJSONReport(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	tool := buildTool(t)
	dir := writeLaunderModule(t)

	report := filepath.Join(dir, "imclint-report.json")
	cmd := exec.Command(tool, "-json", "-o", report, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("want exit 2 on findings, got %v\n%s", err, out)
	}
	// With -o the report goes to the file; the log still shows findings.
	if !strings.Contains(string(out), "nondetflow") {
		t.Fatalf("findings not echoed to stdout with -o:\n%s", out)
	}
	data1, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(data1, &findings); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, data1)
	}
	if len(findings) == 0 || findings[0].Analyzer != "nondetflow" ||
		findings[0].File != "staging/staging.go" || findings[0].Line == 0 {
		t.Fatalf("unexpected report contents: %+v", findings)
	}

	// Byte-stability: a second run must produce the identical report.
	cmd = exec.Command(tool, "-json", "-o", report, "./...")
	cmd.Dir = dir
	cmd.Run()
	data2, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data1, data2) {
		t.Fatal("JSON report differs between identical runs")
	}

	// A clean package encodes as the empty array, not null.
	clean := exec.Command(tool, "-json", "./hostutil")
	clean.Dir = dir
	out, err = clean.Output()
	if err != nil {
		t.Fatalf("clean package: %v", err)
	}
	if strings.TrimSpace(string(out)) != "[]" {
		t.Fatalf("clean tree should print [], got %q", out)
	}
}
