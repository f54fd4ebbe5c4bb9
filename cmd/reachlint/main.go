// Command reachlint reports the package-level declarations of a module that
// no main package reaches.
//
// Usage, from the module root:
//
//	go run ./cmd/reachlint
//
// The roots are the main functions of this module and of every module
// nested below it (a benchmark module that imports this one counts), plus
// every init function and package-level var initializer of the packages
// they link. From the roots the checker follows each reference to a
// function, method, type, const or var. Only non-test files are read, so a
// declaration that only tests use is unreached. A method is also reached
// when its receiver type is reached and an interface that reached code
// names or calls through has a method of the same name and signature, or
// the name is one the standard library calls through an interface
// (stdlibCalls). Such a method is either called dynamically or needed for
// the type to satisfy the interface.
//
// Packages are listed by `go list`, so build tags apply. Declarations are
// checked in this module's packages only, except in a package the allowlist
// names as a whole, such as a shared test fixture that no main links.
//
// The checker prints "file:line name" for each unreached declaration not in
// the allowlist (allowlistPath), and for each stale allowlist entry: one
// that names no unreached declaration, or a package a main links or that is
// not this module's. It exits 1 if it printed anything.
package main

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
	"io/fs"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// allowlistPath holds, relative to the module root, one
// "<import path>.<name> <reason>" line per declaration kept unreached on
// purpose, and one "<import path> <reason>" line per package exempt from the
// check.
const allowlistPath = "cmd/reachlint/allowlist.txt"

// stdlibCalls are method names the standard library calls through an
// interface on values reached code hands it: fmt's Stringer, Formatter and
// error, errors' Unwrap/Is/As, io's readers and writers, sort.Interface,
// container/heap, flag.Value, and the encoding/json and encoding
// marshalers.
var stdlibCalls = []string{
	"String", "GoString", "Format", "Error", "Unwrap", "Is", "As",
	"Read", "Write", "WriteString", "Close", "ReadFrom", "WriteTo",
	"Len", "Less", "Swap", "Push", "Pop", "Set",
	"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText",
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("reachlint: ")
	n, err := run(".", os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	if n > 0 {
		os.Exit(1)
	}
}

// listPkg is the part of a `go list -json` record the checker reads.
type listPkg struct {
	Dir, ImportPath, Name string
	GoFiles, Imports      []string
}

// unit is what becomes reached as one: a function or method, a type, a var
// spec, or a const spec (a whole const group when it repeats an implicit
// iota expression, since deleting one name would shift the others).
type unit struct {
	objs    []types.Object
	node    ast.Node
	reached bool
}

type checker struct {
	fset  *token.FileSet
	info  *types.Info
	std   types.ImporterFrom
	list  map[string]*listPkg // module packages by import path
	pkgs  map[string]*types.Package
	files map[string][]*ast.File

	units   map[types.Object]*unit
	checked []*unit // the units whose declarations are reported
	methods map[*types.TypeName][]*types.Func
	// iface holds, by name, the signatures of the interface methods
	// reached code uses; a nil signature matches any.
	iface map[string][]*types.Signature
	queue []*unit
}

// run checks the module rooted at root, writes one line per finding to w
// and returns how many it wrote.
func run(root string, w io.Writer) (int, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return 0, err
	}
	fset := token.NewFileSet()
	c := &checker{
		fset: fset,
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		list:    map[string]*listPkg{},
		pkgs:    map[string]*types.Package{},
		files:   map[string][]*ast.File{},
		units:   map[types.Object]*unit{},
		methods: map[*types.TypeName][]*types.Func{},
		iface:   map[string][]*types.Signature{},
	}
	for _, name := range stdlibCalls {
		c.iface[name] = []*types.Signature{nil}
	}
	mods, err := modules(root)
	if err != nil {
		return 0, err
	}
	own := map[string]bool{} // this module's packages
	for i, dir := range mods {
		ps, err := goList(dir)
		if err != nil {
			return 0, err
		}
		for _, p := range ps {
			if c.list[p.ImportPath] == nil {
				c.list[p.ImportPath] = p
				own[p.ImportPath] = i == 0
			}
		}
	}
	for path := range c.list {
		if _, err := c.ImportFrom(path, "", 0); err != nil {
			return 0, err
		}
	}

	// Linked packages are those a main imports, directly or not.
	var mains []string
	for path, p := range c.list {
		if p.Name == "main" {
			mains = append(mains, path)
		}
	}
	linked := c.closure(mains)

	// An entry naming a listed package exempts it, if it is this module's
	// and no main links it; the other entries name declarations.
	allow, err := readAllowlist(filepath.Join(root, allowlistPath))
	if err != nil {
		return 0, err
	}
	var out []finding
	var decls []entry
	exempt := map[string]bool{}
	for _, e := range allow {
		switch {
		case c.list[e.name] == nil:
			decls = append(decls, e)
		case !own[e.name] || linked[e.name]:
			out = append(out, finding{e.pos, e.name + " (stale allowlist entry)"})
		case e.reason == "":
			out = append(out, finding{e.pos, e.name + " (allowlist entry without a reason)"})
		default:
			exempt[e.name] = true
		}
	}

	for path := range c.list {
		for _, f := range c.files[path] {
			c.declare(f, linked[path], own[path] && !exempt[path])
		}
	}
	c.drain()

	// The unreached declarations of the checked packages, by name.
	unreached := map[string]types.Object{}
	for _, u := range c.checked {
		for _, obj := range u.objs {
			if !u.reached {
				unreached[qualified(obj)] = obj
			}
		}
	}

	// An allowlisted declaration is kept, and so is all it references.
	for _, e := range decls {
		switch obj := unreached[e.name]; {
		case obj == nil:
			out = append(out, finding{e.pos, e.name + " (stale allowlist entry)"})
		case e.reason == "":
			out = append(out, finding{e.pos, e.name + " (allowlist entry without a reason)"})
		default:
			c.reach(obj)
		}
	}
	c.drain()
	for name, obj := range unreached {
		if !c.units[obj].reached {
			out = append(out, finding{c.fset.Position(obj.Pos()), name})
		}
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].pos, out[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].name < out[j].name
	})
	for _, f := range out {
		rel, err := filepath.Rel(root, f.pos.Filename)
		if err != nil {
			rel = f.pos.Filename
		}
		fmt.Fprintf(w, "%s:%d %s\n", filepath.ToSlash(rel), f.pos.Line, f.name)
	}
	return len(out), nil
}

type finding struct {
	pos  token.Position
	name string
}

// modules returns root and every directory below it holding a go.mod,
// skipping testdata and hidden directories as the go tool does.
func modules(root string) ([]string, error) {
	mods := []string{root}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == root {
			return err
		}
		if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			mods = append(mods, path)
		}
		return nil
	})
	return mods, err
}

func goList(dir string) ([]*listPkg, error) {
	cmd := exec.Command("go", "list", "-json=Dir,ImportPath,Name,GoFiles,Imports", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %w", dir, err)
	}
	var ps []*listPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listPkg)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("go list in %s: %w", dir, err)
		}
		ps = append(ps, p)
	}
	return ps, nil
}

func (c *checker) Import(path string) (*types.Package, error) { return c.ImportFrom(path, "", 0) }

// ImportFrom type-checks a listed package from its files into the shared
// Info; any other import is a standard library package.
func (c *checker) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	lp := c.list[path]
	if lp == nil {
		return c.std.ImportFrom(path, dir, mode)
	}
	if p := c.pkgs[path]; p != nil {
		return p, nil
	}
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(lp.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: c}
	p, err := conf.Check(path, c.fset, files, c.info)
	if err != nil {
		return nil, err
	}
	c.pkgs[path], c.files[path] = p, files
	return p, nil
}

// closure returns the listed packages among paths and their imports.
func (c *checker) closure(paths []string) map[string]bool {
	seen := map[string]bool{}
	for len(paths) > 0 {
		path := paths[len(paths)-1]
		paths = paths[:len(paths)-1]
		if lp := c.list[path]; lp != nil && !seen[path] {
			seen[path] = true
			paths = append(paths, lp.Imports...)
		}
	}
	return seen
}

// declare records the units of f, and queues its roots when its package
// is linked into a main: main, init, and var initializers.
func (c *checker) declare(f *ast.File, linked, checked bool) {
	add := func(node ast.Node, idents ...*ast.Ident) {
		u := &unit{node: node}
		for _, id := range idents {
			if obj := c.info.Defs[id]; obj != nil { // nil for _
				u.objs = append(u.objs, obj)
				c.units[obj] = u
			}
		}
		if len(u.objs) > 0 && checked {
			c.checked = append(c.checked, u)
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && f.Name.Name == "main") {
				if linked {
					c.queue = append(c.queue, &unit{node: d})
				}
				continue
			}
			add(d, d.Name)
			fn := c.info.Defs[d.Name].(*types.Func)
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if tn := recvName(recv.Type()); tn != nil {
					c.methods[tn] = append(c.methods[tn], fn)
				}
			}
		case *ast.GenDecl:
			if d.Tok == token.VAR && linked {
				c.queue = append(c.queue, &unit{node: d})
			}
			if d.Tok == token.CONST && repeatsIota(d) {
				var names []*ast.Ident
				for _, s := range d.Specs {
					names = append(names, s.(*ast.ValueSpec).Names...)
				}
				add(d, names...)
				continue
			}
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s, s.Name)
				case *ast.ValueSpec:
					add(s, s.Names...)
				}
			}
		}
	}
}

// repeatsIota reports whether a const group has a spec that repeats the
// previous expression implicitly.
func repeatsIota(d *ast.GenDecl) bool {
	for _, s := range d.Specs {
		if len(s.(*ast.ValueSpec).Values) == 0 {
			return true
		}
	}
	return false
}

// drain walks queued units until no new unit is reached, then reaches the
// methods of reached types whose names an interface in use has, and
// repeats until that adds nothing.
func (c *checker) drain() {
	for {
		for len(c.queue) > 0 {
			u := c.queue[len(c.queue)-1]
			c.queue = c.queue[:len(c.queue)-1]
			ast.Inspect(u.node, c.visit)
		}
		for tn, fns := range c.methods {
			if u := c.units[tn]; u == nil || !u.reached {
				continue
			}
			for _, fn := range fns {
				if c.satisfies(fn) {
					c.reach(fn)
				}
			}
		}
		if len(c.queue) == 0 {
			return
		}
	}
}

func (c *checker) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.Ident:
		if obj := c.info.Uses[n]; obj != nil {
			c.reach(obj)
		}
	case *ast.InterfaceType:
		c.useInterface(c.info.TypeOf(n))
	}
	return true
}

// useInterface records the methods of an interface type, embedded ones
// included.
func (c *checker) useInterface(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			c.useMethod(it.Method(i))
		}
	}
}

func (c *checker) useMethod(m *types.Func) {
	if !c.satisfies(m) {
		c.iface[m.Name()] = append(c.iface[m.Name()], m.Type().(*types.Signature))
	}
}

// satisfies reports whether a recorded interface method has fn's name and
// signature. A generic receiver's methods match on the name alone.
func (c *checker) satisfies(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	generic := sig.RecvTypeParams().Len() > 0
	for _, s := range c.iface[fn.Name()] {
		if s == nil || generic || types.Identical(s, sig) {
			return true
		}
	}
	return false
}

func (c *checker) reach(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
		if recv := o.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			c.useMethod(o)
			return
		}
	case *types.Var:
		obj = o.Origin()
	case *types.TypeName:
		c.useInterface(o.Type())
	}
	if u := c.units[obj]; u != nil && !u.reached {
		u.reached = true
		c.queue = append(c.queue, u)
	}
}

// recvName returns the named type a method's receiver type denotes.
func recvName(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// qualified names obj as the allowlist does: import path, then the
// receiver type for a method, then the name.
func qualified(obj types.Object) string {
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			name = recvName(recv.Type()).Name() + "." + name
		}
	}
	return obj.Pkg().Path() + "." + name
}

type entry struct {
	pos          token.Position
	name, reason string
}

// readAllowlist parses the allowlist at path, if there is one: a
// "<name> <reason>" line per entry, blank lines and # comments skipped.
func readAllowlist(path string) ([]entry, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var es []entry
	for i, text := range strings.Split(string(data), "\n") {
		if text = strings.TrimSpace(text); text != "" && !strings.HasPrefix(text, "#") {
			name, reason, _ := strings.Cut(text, " ")
			es = append(es, entry{token.Position{Filename: path, Line: i + 1}, name, strings.TrimSpace(reason)})
		}
	}
	return es, nil
}
