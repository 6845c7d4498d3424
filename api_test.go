package conga

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

type pin struct{ test, why string }

// testOnlyAPI and testOnlyFields list the functions and fields
// TestNoTestOnlyAPI lets stand without a non-test use or write, each with the
// test that pins it and why it stays. A stale entry fails the test.
var testOnlyAPI = map[string]pin{
	"internal/core.Header.Encode":         {"FuzzHeaderRoundTrip", "§3.1: the overlay header's wire format, modelled, not on the simulated path"},
	"internal/core.DecodeHeader":          {"FuzzHeaderRoundTrip", "§3.1: the overlay header's wire format, modelled, not on the simulated path"},
	"internal/fabric.Host.AccessLink":     {"TestFastRetransmitRecoversFromSingleLoss", "ROADMAP 2(b): timed fault schedules flap any link"},
	"internal/fabric.Network.RestoreLink": {"TestFailAndRestoreLink", "ROADMAP 2(b): timed fault schedules restore links mid-run"},
	"internal/sim.Engine.Pending":         {"TestCancelRemovesEventFromQueueImmediately", "ROADMAP engine self-observability: queue depth"},
	"internal/stochmodel.Bound":           {"TestEffectiveLambdaFormula", "§4 Theorem 2; ROADMAP 7(b) asserts it on the simulator"},
}

var testOnlyFields = map[string]pin{
	"internal/core.Params.Alpha":             {"TestParamsValidate", "§3.6: the DRE decay factor; ROADMAP 14 varies it"},
	"internal/core.Params.AgeTimeout":        {"TestCongestionToLeafAging", "§3.3: metric aging"},
	"internal/core.Params.FlowletTableSize":  {"TestFlowletTableMatchesReferenceModel", "§3.4: the flowlet table's size; small tables make collisions testable"},
	"internal/fabric.Config.AccessPropDelay": {"TestPartitionedValidation", "ROADMAP 12: propagation delay is a metamorphic factor"},
	"internal/fabric.Config.FabricPropDelay": {"TestPartitionedValidation", "ROADMAP 12: propagation delay is a metamorphic factor"},
	"internal/fabric.Config.HostBufBytes":    {"TestFabricMatchesReference", "ROADMAP 17: the host NIC's queue decides self-inflicted drops"},
	"conga.FCTConfig.DrainTimeout":           {"TestHostileConfigsReturnErrors", "ROADMAP 21: how long a bounded run drains"},
	"conga.FCTConfig.WCMPWeights":            {"TestRunFCTWCMPWithWeights", "§2.4: weighted WCMP; every production run is unweighted (ROADMAP 13)"},
	"conga.Topology.EdgeBufBytes":            {"TestCheckIncastAndHDFS", "§5: per-port buffer; small buffers make drops testable"},
	"conga.Topology.FabricBufBytes":          {"TestHostileConfigsReturnErrors", "§5: per-port buffer"},
	"conga.TransportConfig.Subflows":         {"TestHostileConfigsReturnErrors", "§5.2: MPTCP's subflow count"},
	"conga.HDFSConfig.Writers":               {"TestCheckIncastAndHDFS", "test size: an HDFS job small enough for go test"},
	"conga.HDFSConfig.BlockBytes":            {"TestCheckIncastAndHDFS", "test size: an HDFS job small enough for go test"},
	"conga.HDFSConfig.Timeout":               {"TestHostileConfigsReturnErrors", "test size: a trial bound for go test"},
	"conga.ScaleConfig.Duration":             {"TestHostileConfigsReturnErrors", "test size: a scale cell small enough for go test"},
	"internal/telemetry.Options.SeriesCap":   {"TestSeriesDownsampling", "test size: a series that fills"},
	"internal/telemetry.Options.TraceCap":    {"TestReadReportsMatchGolden", "test size: a trace that fills"},
	"internal/telemetry.Options.DecisionCap": {"TestReadReportsMatchGolden", "test size: a decision trace that fills"},
	"internal/telemetry.Options.Dir":         {"TestSinkFilesGolden", "deployment: where sinks go; the CLIs set it through telemetry.All"},
}

// TestNoTestOnlyAPI fails on an exported function or method, outside package
// main, that no non-test file of the module uses (bench/, cmd/, examples/ and
// tools/ count), unless it implements a method of an interface some package
// declares or imports; and on an exported field of an input struct that no
// non-test file writes. An input struct is a value type (no pointer-receiver
// methods: a config, not an object) an exported function or method takes as
// a parameter, directly or by pointer, plus the struct types of its exported
// fields, recursively. A write is a composite-literal key, an assignment or
// ++ through a selector chain, or &x.F; none counts in the struct's own
// methods, in its package's functions that return it, or as a default fill
// (if x.F == 0 { x.F = v }). The module is type-checked from source, with
// imports from the export data `go list -export` leaves in the build cache,
// so names are matched by their full names, not by object.
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
	owner := map[*types.Var]string{}                                                        // field of a module struct → pkg.Type
	used, written := map[string]bool{}, map[string]bool{}                                   // by apiName; by pkg.Type.Field
	ifaces := map[*types.Interface]bool{types.Universe.Lookup("error").Type().Underlying().(*types.Interface): true}
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
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
		pkg, err := (&types.Config{Importer: gc}).Check(f[0], fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", f[0], err)
		}
		for _, p := range append(pkg.Imports(), pkg) {
			for _, name := range p.Scope().Names() {
				typ := p.Scope().Lookup(name).Type() // a type's, or a variable's
				switch u := typ.Underlying().(type) {
				case *types.Struct:
					for i := 0; i < u.NumFields(); i++ {
						owner[u.Field(i)] = structName(typ)
					}
				case *types.Interface:
					if named, _ := typ.(*types.Named); u.IsMethodSet() && (named == nil || named.TypeParams() == nil) {
						ifaces[u] = true
					}
				}
			}
		}
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
		for _, file := range files {
			for _, decl := range file.Decls {
				recordWrites(decl, info, pkg, owner, written)
			}
		}
	}

	implements := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		for it := range ifaces {
			if m, _, _ := types.LookupFieldOrMethod(it, false, nil, fn.Name()); m != nil && recv != nil &&
				(types.Implements(recv.Type(), it) || types.Implements(types.NewPointer(recv.Type()), it)) {
				return true
			}
		}
		return false
	}

	names := map[string]bool{} // every name an allowlist entry may hold
	check := func(kind, key, list string, pinned pin, ok bool, pos token.Pos) {
		names[key] = true
		switch {
		case ok && pinned.test != "":
			t.Errorf("%s is allowlisted in %s but now has a non-test %s: drop its entry", key, list, kind)
		case ok:
		case pinned.test == "":
			t.Errorf("%s: %s has no non-test %s: delete it, or allowlist it in %s with the test that pins it",
				fset.Position(pos), key, kind, list)
		case !strings.Contains(testSrc.String(), "func "+pinned.test+"("):
			t.Errorf("%s is allowlisted in %s as pinned by %s, which no test file declares", key, list, pinned.test)
		}
	}
	inputs := map[string]bool{} // pkg.Type of every input struct
	var addInput func(typ types.Type)
	addInput = func(typ types.Type) {
		for e, ok := typ.(interface{ Elem() types.Type }); ok; e, ok = typ.(interface{ Elem() types.Type }) {
			typ = e.Elem() // a struct behind a pointer, slice, array or map
		}
		if typ := structName(typ); typ == "" || inputs[typ] {
			return
		}
		for i, named := 0, typ.(*types.Named); i < named.NumMethods(); i++ {
			if _, ptr := named.Method(i).Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
				return // an object with state, not a value a caller fills in
			}
		}
		inputs[structName(typ)] = true
		for i, st := 0, typ.Underlying().(*types.Struct); i < st.NumFields(); i++ {
			if fld := st.Field(i); fld.Exported() {
				key := structName(typ) + "." + fld.Name()
				check("write", key, "testOnlyFields", testOnlyFields[key], written[key], fld.Pos())
				addInput(fld.Type())
			}
		}
	}
	for _, fn := range declared {
		if !fn.Exported() || fn.Pkg().Name() == "main" {
			continue
		}
		for i, params := 0, fn.Type().(*types.Signature).Params(); i < params.Len(); i++ {
			addInput(params.At(i).Type())
		}
		key := apiName(fn)
		check("use", key, "testOnlyAPI", testOnlyAPI[key], used[key] || implements(fn), fn.Pos())
	}
	for _, list := range []map[string]pin{testOnlyAPI, testOnlyFields} {
		for key := range list {
			if !names[key] {
				t.Errorf("%s is allowlisted but no longer declared: drop its entry", key)
			}
		}
	}
}

// structName returns pkg.Type for a named struct type of the module, or a
// pointer to one, or "".
func structName(typ types.Type) string {
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	named, ok := typ.(*types.Named)
	if _, isStruct := typ.Underlying().(*types.Struct); !ok || !isStruct || named.Obj().Pkg() == nil ||
		!strings.HasPrefix(named.Obj().Pkg().Path(), "conga") {
		return ""
	}
	return strings.TrimPrefix(named.Obj().Pkg().Path(), "conga/") + "." + named.Obj().Name()
}

// recordWrites adds to written the pkg.Type.Field key of every field decl
// writes, by TestNoTestOnlyAPI's rules.
func recordWrites(decl ast.Decl, info *types.Info, pkg *types.Package, owner map[*types.Var]string, written map[string]bool) {
	exempt := map[string]bool{}
	if fd, ok := decl.(*ast.FuncDecl); ok {
		sig := info.Defs[fd.Name].(*types.Func).Type().(*types.Signature)
		if sig.Recv() != nil {
			exempt[structName(sig.Recv().Type())] = true
		}
		for i := 0; i < sig.Results().Len(); i++ {
			if name := structName(sig.Results().At(i).Type()); strings.HasPrefix(name, strings.TrimPrefix(pkg.Path(), "conga/")+".") {
				exempt[name] = true
			}
		}
	}
	write := func(id *ast.Ident) {
		if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() && owner[v.Origin()] != "" && !exempt[owner[v.Origin()]] {
			written[owner[v.Origin()]+"."+v.Name()] = true
		}
	}
	chain := func(e ast.Expr) { // every field along x.a[i].b
		for e != nil {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				write(x.Sel)
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				e = nil
			}
		}
	}
	fills := map[ast.Stmt]bool{}
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if cond, ok := n.Cond.(*ast.BinaryExpr); ok && len(n.Body.List) == 1 {
				if as, ok := n.Body.List[0].(*ast.AssignStmt); ok && len(as.Lhs) == 1 && types.ExprString(as.Lhs[0]) == types.ExprString(cond.X) {
					fills[as] = true
				}
			}
		case *ast.KeyValueExpr: // a composite literal's key
			if id, ok := n.Key.(*ast.Ident); ok {
				write(id)
			}
		case *ast.AssignStmt:
			for i := 0; i < len(n.Lhs) && !fills[n]; i++ {
				chain(n.Lhs[i])
			}
		case *ast.IncDecStmt:
			chain(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				chain(n.X)
			}
		}
		return true
	})
}
