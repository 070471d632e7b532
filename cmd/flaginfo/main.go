// Command flaginfo inspects the modeled HotSpot flag universe: the
// registry, a single flag's definition, or which flags the hierarchy marks
// active under a given configuration. It is the reproduction's analogue of
// java -XX:+PrintFlagsFinal.
//
// Usage:
//
//	flaginfo                          # summary counts by category and kind
//	flaginfo -flag CompileThreshold   # one flag's definition
//	flaginfo -category gc             # all flags of a category
//	flaginfo -active -- -XX:+UseG1GC  # flags active under the given args
//	flaginfo -space                   # search-space accounting (Table 3)
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/flags"
	"repro/internal/hierarchy"
)

func main() {
	var (
		one      = flag.String("flag", "", "show one flag's definition")
		category = flag.String("category", "", "list flags of a category (gc, heap, jit, inline, threads, runtime, debug)")
		active   = flag.Bool("active", false, "list flags active under the java-style args after --")
		space    = flag.Bool("space", false, "print search-space accounting")
	)
	flag.Parse()

	reg := flags.NewRegistry()
	switch {
	case *one != "":
		f := reg.Lookup(*one)
		if f == nil {
			fmt.Fprintf(os.Stderr, "flaginfo: unknown flag %q\n", *one)
			os.Exit(1)
		}
		printFlag(f)
	case *category != "":
		names := reg.ByCategory(flags.Category(*category))
		if len(names) == 0 {
			fmt.Fprintf(os.Stderr, "flaginfo: no flags in category %q\n", *category)
			os.Exit(1)
		}
		for _, n := range names {
			printFlag(reg.Lookup(n))
		}
	case *active:
		cfg, err := flags.ParseArgs(reg, flag.Args())
		if err != nil {
			fmt.Fprintf(os.Stderr, "flaginfo: %v\n", err)
			os.Exit(1)
		}
		tree := hierarchy.Build(reg)
		col, err := hierarchy.SelectedCollector(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flaginfo: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("collector: %s\n", col)
		for _, id := range tree.ActiveFlags(cfg) {
			fmt.Println(reg.FlagByID(id).Name)
		}
	case *space:
		fmt.Println(experiments.RenderSpace(experiments.RunSpace()))
	default:
		summarize(reg)
	}
}

func printFlag(f *flags.Flag) {
	fmt.Printf("%-40s %-5s %-12s %-8s", f.Name, f.Type, f.Kind, f.Category)
	switch f.Type {
	case flags.Bool:
		fmt.Printf(" default=%v", f.Default.B)
	case flags.Int:
		fmt.Printf(" default=%d range=[%d,%d]", f.Default.I, f.Min, f.Max)
	case flags.Enum:
		fmt.Printf(" default=%s choices=%v", f.ValueString(f.Default), f.Choices)
	}
	if f.Inert {
		fmt.Printf(" inert")
		if f.OverheadPct > 0 {
			fmt.Printf("(%.1f%% overhead)", f.OverheadPct*100)
		}
	}
	fmt.Printf("\n    %s\n", f.Description)
}

func summarize(reg *flags.Registry) {
	byCat := map[flags.Category]int{}
	byKind := map[flags.Kind]int{}
	tunable := 0
	for _, n := range reg.Names() {
		f := reg.Lookup(n)
		byCat[f.Category]++
		byKind[f.Kind]++
		if f.Tunable() {
			tunable++
		}
	}
	fmt.Printf("flags: %d total, %d tunable\n\nby kind:\n", reg.Len(), tunable)
	for _, k := range []flags.Kind{flags.Product, flags.Experimental, flags.Diagnostic, flags.Develop} {
		fmt.Printf("  %-13s %4d\n", k, byKind[k])
	}
	fmt.Printf("\nby category:\n")
	for _, c := range []flags.Category{flags.CatGC, flags.CatHeap, flags.CatJIT, flags.CatInline,
		flags.CatThreads, flags.CatRuntime, flags.CatDebug} {
		fmt.Printf("  %-9s %4d\n", c, byCat[c])
	}
}
