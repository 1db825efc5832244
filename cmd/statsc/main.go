// Command statsc drives the STATS compiler pipeline (§3.4) over a source
// file written with the SDI/TI extensions: the front-end lowers the
// extension blocks to standard source plus the generated tradeoff header;
// the middle-end emits IR with auxiliary code; the back-end instantiates a
// configuration into a "binary" (the specialized program description).
//
// Usage:
//
//	statsc -in internal/workload/bodytrack/bodytrack.stats -emit std      # standard source
//	statsc -in internal/workload/bodytrack/bodytrack.stats -emit header   # Figure 11 header
//	statsc -in internal/workload/bodytrack/bodytrack.stats -emit ir       # IR summary
//	statsc -in internal/workload/bodytrack/bodytrack.stats -emit binary \
//	       -set TO_AnnealingLayers$aux$track=2 \
//	       -runtime track=aux,group=8,window=2,redo=2,rollback=2
//
// -set and -runtime name dimensions of the module's state space
// (profiler.ModuleSpace, the tuner's dimensions per dependence): a name that
// is not a dimension, or a value off its dimension's grid, is refused, and
// every dimension left unset keeps its default.
//
// The statsvet analysis suite gates emission by default: any
// error-severity finding (IR verifier, effect/purity dataflow, tradeoff
// lints) makes statsc refuse to emit. Disable with -vet=false — the
// runtime's speculative validation then becomes the only safety net.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/backend"
	"repro/internal/frontend"
	"repro/internal/ir"
	"repro/internal/midend"
	"repro/internal/profiler"
	"repro/internal/space"
)

// stringsFlag collects repeatable flags.
type stringsFlag []string

func (s *stringsFlag) String() string { return strings.Join(*s, ",") }
func (s *stringsFlag) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	in := flag.String("in", "", "input source file with STATS extensions ('-' for stdin)")
	emit := flag.String("emit", "binary", "what to emit: std, header, ir, binary")
	vet := flag.Bool("vet", true, "run the statsvet analysis suite and refuse to emit a failing module")
	var sets, runtimes stringsFlag
	flag.Var(&sets, "set", "tradeoff index assignment name=idx (repeatable)")
	flag.Var(&runtimes, "runtime", "runtime options dep=aux,group=G,window=K,redo=R,rollback=W (repeatable)")
	flag.Parse()
	switch *emit {
	case "std", "header", "ir", "binary":
	default:
		fatal(fmt.Errorf("statsc: unknown -emit %q", *emit))
	}

	src, err := readInput(*in)
	if err != nil {
		fatal(err)
	}

	fo, err := frontend.Translate(src)
	if err != nil {
		fatal(err)
	}
	switch *emit {
	case "std":
		fmt.Print(fo.StandardSource)
		return
	case "header":
		fmt.Print(fo.Header)
		return
	}

	mod, err := midend.Lower(fo)
	if err != nil {
		fatal(err)
	}
	// The vet gate: the same passes cmd/statsvet runs, printed as the same
	// one-line records. Warnings are advisory; any error-severity finding
	// means the module is refused before anything is emitted (opt out with
	// -vet=false).
	if *vet {
		ds := analysis.AnalyzeProgram(fo, mod)
		for _, d := range ds {
			d.File = *in
			fmt.Fprintf(os.Stderr, "statsc: vet: %s\n", d)
		}
		if analysis.HasErrors(ds) {
			fatal(fmt.Errorf("statsc: vet found errors; refusing to emit (use -vet=false to override)"))
		}
	}
	if *emit == "ir" {
		printIR(mod)
		return
	}

	prog, err := instantiate(mod, sets, runtimes)
	if err != nil {
		fatal(err)
	}
	if err := prog.Validate(); err != nil {
		fatal(err)
	}
	printProgram(prog)
}

func readInput(path string) (string, error) {
	if path == "" {
		return "", fmt.Errorf("statsc: -in is required")
	}
	if path == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}

// instantiate compiles the point of the module's state space that the flags
// name: -set NAME=IDX sets dimension aux.NAME, and each option of -runtime
// DEP=opt,... sets a dimension of DEP's block, KEY=V to the index whose
// value is V and a bare "aux" to 1. Every other dimension keeps its default.
func instantiate(mod *ir.Module, sets, runtimes []string) (*backend.Program, error) {
	s, err := profiler.ModuleSpace(mod)
	if err != nil {
		return nil, err
	}
	c := s.Default()
	for _, a := range sets {
		name, idx, ok := strings.Cut(a, "=")
		if !ok {
			return nil, fmt.Errorf("statsc: malformed -set %q", a)
		}
		if err := setValue(s, c, "aux."+name, idx); err != nil {
			return nil, fmt.Errorf("statsc: -set %q: %w", a, err)
		}
	}
	for _, a := range runtimes {
		dep, opts, ok := strings.Cut(a, "=")
		if !ok {
			return nil, fmt.Errorf("statsc: malformed -runtime %q", a)
		}
		for _, opt := range strings.Split(opts, ",") {
			if opt == "aux" {
				opt = "aux=1"
			}
			key, v, ok := strings.Cut(opt, "=")
			if !ok {
				return nil, fmt.Errorf("statsc: -runtime %q: malformed option %q", a, opt)
			}
			if err := setValue(s, c, dep+"."+key, v); err != nil {
				return nil, fmt.Errorf("statsc: -runtime %q: %w", a, err)
			}
		}
	}
	return backend.Compile(mod, c)
}

// setValue sets dimension name of c to the index whose value is v.
func setValue(s *space.Space, c space.Config, name, v string) error {
	want, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return err
	}
	i, ok := s.Find(name)
	if !ok {
		return fmt.Errorf("no dimension %s", name)
	}
	d := s.Dims()[i]
	for idx := int64(0); idx < d.Size; idx++ {
		if d.Value(idx) == want {
			c[i] = idx
			return nil
		}
	}
	return fmt.Errorf("%s cannot be %d", name, want)
}

func printIR(mod *ir.Module) {
	fmt.Printf("functions: %d, instructions: %d\n", len(mod.Functions), mod.InstrCount())
	var names []string
	for n := range mod.Functions {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := mod.Functions[n]
		fmt.Printf("  func %-40s %4d instrs", n, len(f.Instrs))
		if refs := f.TradeoffRefs(); len(refs) > 0 {
			fmt.Printf("  tradeoffs: %s", strings.Join(refs, ", "))
		}
		if callees := f.Callees(); len(callees) > 0 {
			fmt.Printf("  calls: %s", strings.Join(callees, ", "))
		}
		fmt.Println()
	}
	fmt.Printf("tradeoffs (auxiliary clones only survive the middle-end):\n")
	for _, t := range mod.Tradeoffs {
		fmt.Printf("  %-45s size %2d default %d cloned-from %s\n", t.Name, t.Size, t.Default, t.ClonedFrom)
	}
	fmt.Printf("state dependences:\n")
	for _, d := range mod.Deps {
		fmt.Printf("  %-12s compute %-14s aux %-28s compare %q by-construction %v\n", d.Name, d.Compute, d.AuxCompute, d.Compare, d.ByConstruction)
	}
}

func printProgram(p *backend.Program) {
	fmt.Printf("binary: %d functions, %d instructions (size increase %.0f%%)\n",
		len(p.Module.Functions), p.Module.InstrCount(), 100*p.SizeIncrease)
	printSorted := func(title string, m map[string]string) {
		if len(m) == 0 {
			return
		}
		fmt.Println(title)
		var keys []string
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %-45s -> %s\n", k, m[k])
		}
	}
	consts := map[string]string{}
	for k, v := range p.Constants {
		consts[k] = strconv.FormatInt(v, 10)
	}
	printSorted("resolved constants:", consts)
	printSorted("re-typed variables:", p.TypeBindings)
	printSorted("resolved callees:", p.Callees)
	fmt.Println("specialized runtime:")
	var deps []string
	for d := range p.Runtime {
		deps = append(deps, d)
	}
	sort.Strings(deps)
	for _, d := range deps {
		ro := p.Runtime[d]
		fmt.Printf("  %-12s aux=%v group=%d window=%d redo=%d rollback=%d\n",
			d, ro.UseAux, ro.GroupSize, ro.Window, ro.RedoMax, ro.Rollback)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
