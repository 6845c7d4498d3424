package conga

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// testOnlyAPI lists the exported names TestNoTestOnlyAPI lets stand with no
// non-test use: each names the test that pins it and why it stays. An entry
// whose name gains a non-test use or is no longer declared fails the test.
var testOnlyAPI = map[string]struct{ test, why string }{
	"internal/core.Header.Encode":          {"FuzzHeaderRoundTrip", "§3.1: the overlay header's wire format, modelled, not on the simulated path"},
	"internal/core.DecodeHeader":           {"FuzzHeaderRoundTrip", "§3.1: the overlay header's wire format, modelled, not on the simulated path"},
	"internal/fabric.Host.AccessLink":      {"TestFastRetransmitRecoversFromSingleLoss", "ROADMAP 2(b): timed fault schedules flap any link"},
	"internal/fabric.Network.RestoreLink":  {"TestFailAndRestoreLink", "ROADMAP 2(b): timed fault schedules restore links mid-run"},
	"internal/fabric.Network.Domains":      {"TestPartitionAssignment", "ROADMAP 1 step 2 deletes the space-parallel engine"},
	"internal/fabric.Network.DomainEngine": {"TestExchangeMergeOrder", "ROADMAP 1 step 2 deletes the space-parallel engine"},
	"internal/fabric.Network.DomainPool":   {"TestPartitionAssignment", "ROADMAP 1 step 2 deletes the space-parallel engine"},
	"internal/sim.ParallelEngine.Engines":  {"TestParallelEngineWindowBoundary", "ROADMAP 1 step 2 deletes the space-parallel engine"},
	"internal/sim.Engine.Pending":          {"TestCancelRemovesEventFromQueueImmediately", "ROADMAP engine self-observability: queue depth"},
	"internal/stochmodel.Bound":            {"TestEffectiveLambdaFormula", "§4 Theorem 2; ROADMAP 7(b) asserts it on the simulator"},
}

// TestNoTestOnlyAPI fails on an exported function or method, declared
// outside package main, that no non-test file of the module uses (bench/,
// cmd/, examples/ and tools/ count as users). A method that implements a
// method of an interface some package declares or imports is exempt. The
// module is type-checked from source, importing every package from the
// compiler's export data that `go list -export` leaves in the build cache, so
// a name is matched by its full name, not by object.
func TestNoTestOnlyAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("runs no goroutines, nothing for the race detector; plain go test runs it")
	}
	out, err := exec.Command("go", "list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}\t{{.Standard}}\t{{.Dir}}\t"+
		`{{join .GoFiles " "}}`+"\t"+`{{join .TestGoFiles " "}} {{join .XTestGoFiles " "}}`, "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	fset := token.NewFileSet()
	export := map[string]string{}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(export[path]) })
	short := strings.NewReplacer("(", "", ")", "", "*", "", "conga/", "")
	apiName := func(fn *types.Func) string { return short.Replace(fn.Origin().FullName()) } // pkg.Func, pkg.Type.Method
	used := map[string]bool{}
	var pkgs []*types.Package
	var declared []*types.Func
	var testSrc strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(string(out), "\n"), "\n") { // each package after its imports
		f := strings.Split(line, "\t") // import path, export data, standard, dir, files, test files
		if export[f[0]] = f[1]; f[2] == "true" {
			continue
		}
		var files []*ast.File
		for _, name := range strings.Fields(f[4]) {
			file, err := parser.ParseFile(fset, filepath.Join(f[3], name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, file)
		}
		for _, name := range strings.Fields(f[5]) {
			src, err := os.ReadFile(filepath.Join(f[3], name))
			if err != nil {
				t.Fatal(err)
			}
			testSrc.Write(src)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		pkg, err := (&types.Config{Importer: gc}).Check(f[0], fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", f[0], err)
		}
		pkgs = append(pkgs, pkg)
		for _, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[apiName(fn)] = true
			}
		}
		for _, name := range pkg.Scope().Names() {
			switch obj := pkg.Scope().Lookup(name).(type) {
			case *types.Func:
				declared = append(declared, obj)
			case *types.TypeName:
				if named, ok := obj.Type().(*types.Named); ok && !obj.IsAlias() {
					for i := 0; i < named.NumMethods(); i++ {
						declared = append(declared, named.Method(i))
					}
				}
			}
		}
	}

	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, pkg := range pkgs {
		for _, p := range append(pkg.Imports(), pkg) {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
					it, ok := tn.Type().Underlying().(*types.Interface)
					if named, _ := tn.Type().(*types.Named); ok && it.IsMethodSet() && (named == nil || named.TypeParams() == nil) {
						ifaces = append(ifaces, it)
					}
				}
			}
		}
	}
	implements := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		for _, it := range ifaces {
			if m, _, _ := types.LookupFieldOrMethod(it, false, nil, fn.Name()); m != nil && recv != nil &&
				(types.Implements(recv.Type(), it) || types.Implements(types.NewPointer(recv.Type()), it)) {
				return true
			}
		}
		return false
	}

	stale := maps.Clone(testOnlyAPI)
	for _, fn := range declared {
		key := apiName(fn)
		entry := testOnlyAPI[key]
		delete(stale, key)
		switch {
		case !fn.Exported() || fn.Pkg().Name() == "main":
		case used[key] && entry.test != "":
			t.Errorf("%s is allowlisted but now has a non-test use: drop its entry", key)
		case used[key] || implements(fn):
		case entry.test == "":
			t.Errorf("%s: %s is exported but only tests use it: delete it, or allowlist it in testOnlyAPI with the test that pins it",
				fset.Position(fn.Pos()), key)
		case !strings.Contains(testSrc.String(), "func "+entry.test+"("):
			t.Errorf("%s is allowlisted as pinned by %s, which no test file declares", key, entry.test)
		}
	}
	for key := range stale {
		t.Errorf("%s is allowlisted but no longer declared: drop its entry", key)
	}
}
