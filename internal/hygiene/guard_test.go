package hygiene

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// The guard's three rules.
const (
	ruleCaller = "no non-test use"
	ruleRead   = "never read by non-test code"
	ruleSet    = "no non-test code sets it"
)

// finding is one declaration a rule rejects: its position, its key
// ("pkg.Func", "pkg.Type.Method" or "pkg.Type.Field") and the struct type
// that owns it, if any ("pkg.Type").
type finding struct {
	rule, pos, key, owner string
}

// pkg is one package type-checked from source.
type pkg struct {
	dir   string
	types *types.Package
	files []*ast.File
	info  *types.Info
}

// program is a set of packages type-checked in dependency order against one
// another and against the standard library's export data.
type program struct {
	fset *token.FileSet
	pkgs []*pkg
	imp  *chainImporter
}

// chainImporter resolves a path to a package checked from source first, and
// otherwise to the standard library's export data, so every package shares
// one types.Package per path and types.Implements works across them.
type chainImporter struct {
	checked map[string]*types.Package
	export  types.Importer
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.checked[path]; ok {
		return p, nil
	}
	return c.export.Import(path)
}

// listed is the part of `go list -json` output the guard reads.
type listed struct {
	ImportPath, Dir, Export string
	GoFiles, CgoFiles       []string
	Standard                bool
}

// loadModules lists each module directory's packages with their
// dependencies, then type-checks every non-standard package from its
// sources. go list supplies only the package graph and the standard
// library's export data; the sources are parsed here, so a change to any of
// them invalidates a cached test result.
func loadModules(dirs ...string) (*program, error) {
	fset := token.NewFileSet()
	exports := map[string]string{}
	var order []listed
	seen := map[string]bool{}
	for _, dir := range dirs {
		cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for dec.More() {
			var p listed
			if err := dec.Decode(&p); err != nil {
				return nil, err
			}
			if p.Standard {
				exports[p.ImportPath] = p.Export
			} else if !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				order = append(order, p)
			}
		}
	}
	prog := &program{fset: fset, imp: &chainImporter{
		checked: map[string]*types.Package{},
		export: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			f, ok := exports[path]
			if !ok || f == "" {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(f)
		}),
	}}
	for _, p := range order {
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo files are not supported", p.ImportPath)
		}
		if err := prog.check(p.ImportPath, p.Dir, p.GoFiles); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// check parses the named files of dir and type-checks them as package path.
func (prog *program) check(path, dir string, names []string) error {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(prog.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: prog.imp}
	tp, err := conf.Check(path, prog.fset, files, info)
	if err != nil {
		return fmt.Errorf("type-checking %s: %v", path, err)
	}
	prog.imp.checked[path] = tp
	prog.pkgs = append(prog.pkgs, &pkg{dir: dir, types: tp, files: files, info: info})
	return nil
}

// uses is what the non-test code of a program does with functions and
// fields.
type uses struct {
	called   map[*types.Func]bool    // referenced outside its own declaration
	iface    map[string][]types.Type // name → interfaces whose method of that name is used
	read     map[*types.Var]bool
	assigned map[*types.Var]bool
}

// collect walks every package of prog.
func collect(prog *program) *uses {
	u := &uses{
		called:   map[*types.Func]bool{},
		iface:    map[string][]types.Type{},
		read:     map[*types.Var]bool{},
		assigned: map[*types.Var]bool{},
	}
	for _, p := range prog.pkgs {
		w := &walker{u: u, info: p.info, writes: map[*ast.Ident]bool{}, readAll: map[seenType]bool{}}
		for _, f := range p.files {
			for _, d := range f.Decls {
				w.owner = nil
				if fd, ok := d.(*ast.FuncDecl); ok {
					w.owner = p.info.Defs[fd.Name]
				}
				w.stack = w.stack[:0]
				ast.Inspect(d, w.visit)
			}
		}
		for id, obj := range p.info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !w.writes[id] {
				u.read[v.Origin()] = true
			}
		}
	}
	return u
}

// walker visits one package's declarations in source order.
type walker struct {
	u       *uses
	info    *types.Info
	owner   types.Object        // the function whose declaration is being walked
	stack   []ast.Node          // enclosing nodes, for a return's signature
	writes  map[*ast.Ident]bool // field selectors in write-only position
	readAll map[seenType]bool   // types readEvery has walked
}

func (w *walker) typeOf(e ast.Expr) types.Type { return w.info.TypeOf(e) }

// visit records what one node does with functions, fields and interfaces.
func (w *walker) visit(n ast.Node) bool {
	if n == nil {
		w.stack = w.stack[:len(w.stack)-1]
		return true
	}
	w.stack = append(w.stack, n)
	switch n := n.(type) {
	case *ast.Ident:
		if fn, ok := w.info.Uses[n].(*types.Func); ok && fn != w.owner {
			fn = fn.Origin()
			w.u.called[fn] = true
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				w.u.iface[fn.Name()] = append(w.u.iface[fn.Name()], recv.Type())
			}
		}
	case *ast.AssignStmt:
		sets := !w.defaulting(n)
		for i, lhs := range n.Lhs {
			w.write(lhs, sets)
			if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
				w.flow(n.Rhs[i], w.typeOf(lhs))
			}
		}
	case *ast.IncDecStmt:
		w.write(n.X, true)
	case *ast.UnaryExpr:
		// &x.f hands out a pointer the field may be set through.
		if n.Op == token.AND {
			if v := w.field(n.X); v != nil {
				w.u.assigned[v] = true
			}
		}
	case *ast.ValueSpec:
		if n.Type != nil && len(n.Values) == len(n.Names) {
			for _, v := range n.Values {
				w.flow(v, w.typeOf(n.Type))
			}
		}
	case *ast.ReturnStmt:
		if sig := w.enclosingSig(); sig != nil && sig.Results().Len() == len(n.Results) {
			for i, r := range n.Results {
				w.flow(r, sig.Results().At(i).Type())
			}
		}
	case *ast.SendStmt:
		if ch, ok := w.typeOf(n.Chan).Underlying().(*types.Chan); ok {
			w.flow(n.Value, ch.Elem())
		}
	case *ast.CompositeLit:
		w.compositeLit(n)
	case *ast.CallExpr:
		w.call(n)
	case *ast.BinaryExpr:
		if n.Op == token.EQL || n.Op == token.NEQ {
			w.readEvery(w.typeOf(n.X), false)
			w.readEvery(w.typeOf(n.Y), false)
		}
	case *ast.MapType:
		w.readEvery(w.typeOf(n.Key), false)
	}
	return true
}

// field resolves x.f to the field f, or nil.
func (w *walker) field(e ast.Expr) *types.Var {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if v, ok := w.info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
		return v.Origin()
	}
	return nil
}

// write records an assignment target: x.f, and x.f[k] (which stores into
// the field's value), write f without reading it; sets says whether the
// write counts as setting f for the knob rule.
func (w *walker) write(lhs ast.Expr, sets bool) {
	lhs = ast.Unparen(lhs)
	if ix, ok := lhs.(*ast.IndexExpr); ok {
		lhs = ast.Unparen(ix.X)
	}
	if v := w.field(lhs); v != nil {
		w.writes[lhs.(*ast.SelectorExpr).Sel] = true
		w.u.assigned[v] = w.u.assigned[v] || sets
	}
}

// defaulting reports whether n is `x.f = v` directly in the body of
// `if x.f == k`, k a constant or nil: it fills in f's default, so a field
// nothing else sets still has one value.
func (w *walker) defaulting(n *ast.AssignStmt) bool {
	if len(n.Lhs) != 1 || n.Tok != token.ASSIGN || len(w.stack) < 3 {
		return false
	}
	v := w.field(n.Lhs[0])
	ifs, ok := w.stack[len(w.stack)-3].(*ast.IfStmt)
	if v == nil || !ok || ast.Node(ifs.Body) != w.stack[len(w.stack)-2] {
		return false
	}
	cond, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
	if !ok || cond.Op != token.EQL {
		return false
	}
	x, k := cond.X, cond.Y
	if w.field(x) != v {
		x, k = k, x
	}
	tv := w.info.Types[k]
	return w.field(x) == v && types.ExprString(x) == types.ExprString(n.Lhs[0]) && (tv.Value != nil || tv.IsNil())
}

// enclosingSig is the signature of the function a return statement leaves.
func (w *walker) enclosingSig() *types.Signature {
	for i := len(w.stack) - 1; i >= 0; i-- {
		switch f := w.stack[i].(type) {
		case *ast.FuncLit:
			return w.typeOf(f).(*types.Signature)
		case *ast.FuncDecl:
			return w.info.Defs[f.Name].Type().(*types.Signature)
		}
	}
	return nil
}

// compositeLit records a literal's elements flowing into their slots and,
// for a struct, the fields it sets.
func (w *walker) compositeLit(lit *ast.CompositeLit) {
	t := w.typeOf(lit)
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i, e := range lit.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				id := kv.Key.(*ast.Ident)
				w.writes[id] = true
				if v, ok := w.info.Uses[id].(*types.Var); ok {
					w.u.assigned[v.Origin()] = true
					w.flow(kv.Value, v.Type())
				}
				continue
			}
			v := u.Field(i)
			w.u.assigned[v.Origin()] = true
			w.flow(e, v.Type())
		}
	case *types.Slice:
		w.elems(lit, nil, u.Elem())
	case *types.Array:
		w.elems(lit, nil, u.Elem())
	case *types.Map:
		w.elems(lit, u.Key(), u.Elem())
	}
}

// elems records a container literal's keys and elements flowing into the
// key and element types.
func (w *walker) elems(lit *ast.CompositeLit, key, elem types.Type) {
	for _, e := range lit.Elts {
		if kv, ok := e.(*ast.KeyValueExpr); ok {
			if key != nil {
				w.flow(kv.Key, key)
			}
			e = kv.Value
		}
		w.flow(e, elem)
	}
}

// readPkgs are the standard-library packages that read every field of a
// value handed to them, as does any function with a ...any parameter (a
// printf wrapper), and printMethods the methods they look for on it.
var (
	readPkgs     = map[string]bool{"fmt": true, "encoding/json": true, "log": true}
	printMethods = []string{"String", "Error", "Format", "GoString", "MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText"}
)

// seenType keys the types readEvery has walked, once per mode.
type seenType struct {
	t       types.Type
	printed bool
}

// call records arguments flowing into parameters, a conversion's operand
// flowing into its type, and values handed to readPkgs.
func (w *walker) call(c *ast.CallExpr) {
	tv := w.info.Types[c.Fun]
	if tv.IsType() {
		if len(c.Args) == 1 {
			w.flow(c.Args[0], tv.Type)
		}
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, a := range c.Args {
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			t := params.At(params.Len() - 1).Type()
			if !c.Ellipsis.IsValid() {
				if s, ok := t.Underlying().(*types.Slice); ok {
					t = s.Elem()
				}
				// A ...any parameter is a printf wrapper's: it prints a.
				if it, ok := t.Underlying().(*types.Interface); ok && it.Empty() {
					w.readEvery(w.typeOf(a), true)
				}
			}
			w.flow(a, t)
		case i < params.Len():
			w.flow(a, params.At(i).Type())
		}
	}
	fun := ast.Unparen(c.Fun)
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		fun = sel.Sel
	}
	if id, ok := fun.(*ast.Ident); ok {
		if fn, ok := w.info.Uses[id].(*types.Func); ok && fn.Pkg() != nil && readPkgs[fn.Pkg().Path()] {
			for _, a := range c.Args {
				w.readEvery(w.typeOf(a), true)
			}
		}
	}
}

// flow records a value of e's type reaching a slot of type to: when that
// converts a concrete type to an interface, every method the interface
// carries is used.
func (w *walker) flow(e ast.Expr, to types.Type) {
	from := w.typeOf(e)
	if from == nil || to == nil || types.IsInterface(from) || !types.IsInterface(to) {
		return
	}
	it := to.Underlying().(*types.Interface)
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		if obj, _, _ := types.LookupFieldOrMethod(from, false, m.Pkg(), m.Name()); obj != nil {
			if fn, ok := obj.(*types.Func); ok {
				w.u.called[fn.Origin()] = true
			}
		}
	}
}

// readEvery marks every field of t read, through nested structs and
// containers: == compares them and a map key hashes them. A printed value
// (one handed to readPkgs) is also read through pointers, and the methods
// those packages call by a dynamic type assertion count as used.
func (w *walker) readEvery(t types.Type, printed bool) {
	k := seenType{t, printed}
	if t == nil || w.readAll[k] {
		return
	}
	w.readAll[k] = true
	if printed {
		for _, name := range printMethods {
			if obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name); obj != nil {
				if fn, ok := obj.(*types.Func); ok {
					w.u.called[fn.Origin()] = true
				}
			}
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		if printed {
			w.readEvery(u.Elem(), printed)
		}
	case *types.Slice:
		w.readEvery(u.Elem(), printed)
	case *types.Array:
		w.readEvery(u.Elem(), printed)
	case *types.Map:
		w.readEvery(u.Key(), printed)
		w.readEvery(u.Elem(), printed)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			w.u.read[u.Field(i).Origin()] = true
			w.readEvery(u.Field(i).Type(), printed)
		}
	}
}

// findings applies the three rules to the packages judge accepts: a
// function or method nothing uses, a struct field nothing reads, and a
// field of a *Config or *Options type nothing sets. Tagged and embedded
// fields are skipped: an encoder or the promotion of their members reads
// them.
func findings(prog *program, u *uses, root string, judge func(*pkg) bool) []finding {
	var out []finding
	add := func(rule string, pos token.Pos, key, owner string) {
		p := prog.fset.Position(pos)
		rel, err := filepath.Rel(root, p.Filename)
		if err != nil {
			rel = p.Filename
		}
		out = append(out, finding{rule, fmt.Sprintf("%s:%d", rel, p.Line), key, owner})
	}
	for _, p := range prog.pkgs {
		if !judge(p) {
			continue
		}
		name := path.Base(p.types.Path())
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[d.Name].(*types.Func)
					if d.Recv == nil && (fn.Name() == "main" || fn.Name() == "init") || u.used(fn) {
						continue
					}
					key := name + "." + fn.Name()
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
						key = name + "." + recvNamed(recv.Type()).Obj().Name() + "." + fn.Name()
					}
					add(ruleCaller, d.Name.Pos(), key, "")
				case *ast.GenDecl:
					for _, s := range d.Specs {
						ts, ok := s.(*ast.TypeSpec)
						if !ok {
							continue
						}
						st, ok := p.info.Defs[ts.Name].Type().Underlying().(*types.Struct)
						if !ok {
							continue
						}
						owner := name + "." + ts.Name.Name
						knobs := strings.HasSuffix(ts.Name.Name, "Config") || strings.HasSuffix(ts.Name.Name, "Options")
						for i := 0; i < st.NumFields(); i++ {
							v := st.Field(i)
							if v.Embedded() || v.Name() == "_" || st.Tag(i) != "" {
								continue
							}
							key := owner + "." + v.Name()
							if !u.read[v] {
								add(ruleRead, v.Pos(), key, owner)
							}
							if knobs && !u.assigned[v] {
								add(ruleSet, v.Pos(), key, owner)
							}
						}
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// used reports whether fn has a non-test use: a reference, a conversion of
// its receiver to an interface carrying it, or a use of a method of that
// name on an interface its receiver satisfies.
func (u *uses) used(fn *types.Func) bool {
	if u.called[fn] {
		return true
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named := recvNamed(recv.Type())
	if named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range u.iface[fn.Name()] {
		iface := it.Underlying().(*types.Interface)
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}

// recvNamed is a method receiver's named type, without its pointer.
func recvNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return types.Unalias(t).(*types.Named)
}
