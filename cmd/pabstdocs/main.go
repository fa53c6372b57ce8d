// Command pabstdocs is the documentation gate behind `make lint-docs`
// and, through its own test, `go test ./...`. It keeps the prose honest
// in four ways:
//
//   - every intra-repo markdown link must resolve to a file that exists
//     (external http/mailto links and pure #anchors are not checked);
//   - every Go package in the repo must carry a package comment, so
//     `go doc` has something to say about each subsystem;
//   - docs/POLICIES.md must be exactly the reference generated from the
//     live QoS policy registry — a mechanism registered in code but
//     missing from (or stale in) the docs fails the gate;
//   - every experiment in the unified registry must appear by name in
//     EXPERIMENTS.md, so `pabstsim -list` never knows about an
//     experiment the book of results does not.
//
// Usage:
//
//	pabstdocs          # lint; non-zero exit on any finding
//	pabstdocs -write   # regenerate docs/POLICIES.md from the registry
package main

import (
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"pabst"
	"pabst/internal/exp"
)

const policiesDoc = "docs/POLICIES.md"

func main() {
	write := flag.Bool("write", false, "regenerate "+policiesDoc+" instead of linting")
	root := flag.String("root", ".", "repository root")
	flag.Parse()

	if err := os.Chdir(*root); err != nil {
		fatalf("%v", err)
	}
	if *write {
		if err := os.WriteFile(policiesDoc, []byte(policyReference()), 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("pabstdocs: wrote %s (%d policies)\n", policiesDoc, len(pabst.Policies()))
		return
	}

	if findings := lint(); len(findings) > 0 {
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, "pabstdocs: "+f)
		}
		os.Exit(1)
	}
	fmt.Println("pabstdocs: ok")
}

// lint runs the four checks from the repository root (the working
// directory) and returns every finding.
func lint() []string {
	var findings []string
	findings = append(findings, lintLinks()...)
	findings = append(findings, lintPackageDocs()...)
	findings = append(findings, lintPolicyReference()...)
	findings = append(findings, lintExperimentDocs()...)
	return findings
}

// mdLink matches inline markdown links; image links share the shape and
// are checked the same way.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// lintLinks checks that every relative link in every tracked markdown
// file points at a path that exists.
func lintLinks() []string {
	var findings []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".md") {
			return nil
		}
		// Skip the growth driver's metadata files: they quote external
		// repos and papers whose links intentionally point outside.
		switch path {
		case "SNIPPETS.md", "PAPERS.md", "PAPER.md", "ISSUE.md", "CHANGES.md":
			return nil
		}
		body, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(body), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") ||
				strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(path), target)
			if _, err := os.Stat(resolved); err != nil {
				findings = append(findings, fmt.Sprintf("%s: broken link %q (%s does not exist)", path, m[1], resolved))
			}
		}
		return nil
	})
	if err != nil {
		findings = append(findings, err.Error())
	}
	return findings
}

// lintPackageDocs requires a package comment on every Go package: some
// non-test file in each package directory must carry a doc comment on
// its package clause.
func lintPackageDocs() []string {
	var findings []string
	dirs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirs[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		return []string{err.Error()}
	}
	fset := token.NewFileSet()
	for dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			findings = append(findings, err.Error())
			continue
		}
		documented := false
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil,
				parser.PackageClauseOnly|parser.ParseComments)
			if err != nil {
				findings = append(findings, err.Error())
				continue
			}
			if f.Doc != nil {
				documented = true
				break
			}
		}
		if !documented {
			findings = append(findings, fmt.Sprintf("%s: package has no package comment (add a doc.go or a comment on the package clause)", dir))
		}
	}
	return findings
}

// lintPolicyReference fails unless docs/POLICIES.md is byte-identical
// to the reference generated from the live registry.
func lintPolicyReference() []string {
	want := policyReference()
	got, err := os.ReadFile(policiesDoc)
	if err != nil {
		return []string{fmt.Sprintf("%s missing; run `go run ./cmd/pabstdocs -write` (%v)", policiesDoc, err)}
	}
	if string(got) != want {
		for _, p := range pabst.Policies() {
			if !strings.Contains(string(got), "### "+p.Name+" ("+p.Kind+")") {
				return []string{fmt.Sprintf("%s: registered %s policy %q undocumented; run `go run ./cmd/pabstdocs -write`", policiesDoc, p.Kind, p.Name)}
			}
		}
		return []string{fmt.Sprintf("%s is stale; run `go run ./cmd/pabstdocs -write`", policiesDoc)}
	}
	return nil
}

// lintExperimentDocs requires every experiment in the unified registry
// to be mentioned by name in EXPERIMENTS.md.
func lintExperimentDocs() []string {
	const doc = "EXPERIMENTS.md"
	body, err := os.ReadFile(doc)
	if err != nil {
		return []string{fmt.Sprintf("%s missing (%v)", doc, err)}
	}
	var findings []string
	for _, e := range exp.Experiments() {
		if !strings.Contains(string(body), e.Name()) {
			findings = append(findings, fmt.Sprintf(
				"%s: registered experiment %q undocumented (pabstsim -list shows the registry)",
				doc, e.Name()))
		}
	}
	return findings
}

// policyReference renders the registry as markdown. Deterministic:
// pabst.Policies() returns sources then targets, each name-sorted.
func policyReference() string {
	var b strings.Builder
	b.WriteString("# QoS policy reference\n\n")
	b.WriteString("<!-- Generated by `go run ./cmd/pabstdocs -write` from the policy\n")
	b.WriteString("     registry; do not edit by hand — `make lint-docs` diffs it. -->\n\n")
	b.WriteString("Every QoS mechanism registered in the policy-plugin registry\n")
	b.WriteString("(`internal/qospolicy`). A run selects one `source+target` pair of\n")
	b.WriteString("these names; the accepted spellings, the five presets and the\n")
	b.WriteString("precedence between `-policy`, a RunSpec's fields and\n")
	b.WriteString("`pabst.WithPolicy` are in [DESIGN.md](../DESIGN.md#selecting-a-mechanism),\n")
	b.WriteString("\"Selecting a mechanism\".\n")
	b.WriteString("To add a mechanism, see [POLICY_AUTHORING.md](POLICY_AUTHORING.md).\n")
	kind := ""
	for _, p := range pabst.Policies() {
		if p.Kind != kind {
			kind = p.Kind
			switch kind {
			case "source":
				b.WriteString("\n## Source policies — per-tile pacing\n")
			case "target":
				b.WriteString("\n## Target policies — memory-controller scheduling\n")
			default:
				fmt.Fprintf(&b, "\n## %s policies\n", kind)
			}
		}
		fmt.Fprintf(&b, "\n### %s (%s)\n\n%s.\n", p.Name, p.Kind, p.Desc)
		if p.Params != "" {
			fmt.Fprintf(&b, "\n- Parameters: %s\n", p.Params)
		}
		fmt.Fprintf(&b, "- Citation: %s\n", p.Cite)
	}
	return b.String()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pabstdocs: "+format+"\n", args...)
	os.Exit(1)
}
