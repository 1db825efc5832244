// Command statsc drives the STATS compiler pipeline (§3.4) over a source
// file written with the SDI/TI extensions: the front-end lowers the
// extension blocks to standard source plus the generated tradeoff header;
// the middle-end emits IR with auxiliary code; the back-end instantiates a
// configuration into a "binary" (the specialized program description).
//
// Usage:
//
//	statsc -in testdata/bodytrack.stats -emit std      # standard source
//	statsc -in testdata/bodytrack.stats -emit header   # Figure 11 header
//	statsc -in testdata/bodytrack.stats -emit ir       # IR summary
//	statsc -in testdata/bodytrack.stats -emit binary \
//	       -set TO_numAnnealingLayers$aux$track=2 \
//	       -runtime track=aux,group=8,window=2,redo=2,rollback=2
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
	if *emit != "binary" {
		fatal(fmt.Errorf("statsc: unknown -emit %q", *emit))
	}

	cfg := backend.Config{TradeoffIdx: map[string]int64{}, Runtime: map[string]backend.RuntimeOptions{}}
	for _, s := range sets {
		name, idxStr, ok := strings.Cut(s, "=")
		if !ok {
			fatal(fmt.Errorf("statsc: malformed -set %q", s))
		}
		idx, err := strconv.ParseInt(idxStr, 10, 64)
		if err != nil {
			fatal(fmt.Errorf("statsc: -set %q: %w", s, err))
		}
		cfg.TradeoffIdx[name] = idx
	}
	for _, s := range runtimes {
		dep, opts, ok := strings.Cut(s, "=")
		if !ok {
			fatal(fmt.Errorf("statsc: malformed -runtime %q", s))
		}
		ro, err := parseRuntime(opts)
		if err != nil {
			fatal(fmt.Errorf("statsc: -runtime %q: %w", s, err))
		}
		cfg.Runtime[dep] = ro
	}

	baseline := 0
	for name, f := range mod.Functions {
		if !strings.Contains(name, "$aux$") {
			baseline += len(f.Instrs)
		}
	}
	prog, err := backend.Compile(mod, cfg, baseline)
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

func parseRuntime(s string) (backend.RuntimeOptions, error) {
	var ro backend.RuntimeOptions
	for _, part := range strings.Split(s, ",") {
		if part == "aux" {
			ro.UseAux = true
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return ro, fmt.Errorf("malformed option %q", part)
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return ro, err
		}
		switch k {
		case "group":
			ro.GroupSize = n
		case "window":
			ro.Window = n
		case "redo":
			ro.RedoMax = n
		case "rollback":
			ro.Rollback = n
		default:
			return ro, fmt.Errorf("unknown option %q", k)
		}
	}
	return ro, nil
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
		fmt.Printf("  %-12s compute %-14s aux %-28s compare %q\n", d.Name, d.Compute, d.AuxCompute, d.Compare)
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
