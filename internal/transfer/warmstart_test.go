package transfer

import (
	"testing"

	"repro/internal/flags"
	"repro/internal/workload"
)

func TestRepairArgsKeepsKnownDropsUnknown(t *testing.T) {
	reg := flags.NewRegistry()
	cfg, dropped, err := RepairArgs(reg, []string{
		"-XX:+UseG1GC",
		"-XX:MaxGCPauseMillis=50",
		"-XX:+FlagThatNeverExisted",        // removed across store generations
		"-XX:AlsoGone=17",                  // ditto, valued form
		"-XX:+UnlockExperimentalVMOptions", // gate pseudo-flag, accepted+ignored
	})
	if err != nil {
		t.Fatalf("repair failed: %v", err)
	}
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	if !cfg.Bool("UseG1GC") {
		t.Fatal("surviving argument not applied")
	}
	names := cfg.ExplicitNames()
	for _, n := range names {
		if n == "FlagThatNeverExisted" || n == "AlsoGone" {
			t.Fatalf("unknown flag survived repair: %v", names)
		}
	}
}

func TestRepairArgsRejectsInvalidHierarchy(t *testing.T) {
	reg := flags.NewRegistry()
	// Two explicitly selected collectors violate the hierarchy; a config
	// that confused it must not become a prior.
	if _, _, err := RepairArgs(reg, []string{"-XX:+UseG1GC", "-XX:+UseSerialGC"}); err == nil {
		t.Fatal("conflicting collectors passed repair")
	}
}

func TestPriors(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	names := workload.Names()
	target, _ := workload.ByName(names[0])
	fp := FingerprintOf(target)

	// Nearest group: a repairable config with one dead flag.
	e := testEntry(t, names[0], 12, "-XX:+UseG1GC", "-XX:MaxGCPauseMillis=50", "-XX:+FlagThatNeverExisted")
	if err := st.Append(e); err != nil {
		t.Fatal(err)
	}
	// A different workload whose config repairs to the SAME canonical key:
	// deduplicated, injected once.
	if err := st.Append(testEntry(t, names[1], 14, "-XX:+UseG1GC", "-XX:MaxGCPauseMillis=50")); err != nil {
		t.Fatal(err)
	}
	// A group whose config cannot be repaired (invalid hierarchy): skipped.
	if err := st.Append(testEntry(t, names[2], 10, "-XX:+UseG1GC", "-XX:+UseSerialGC")); err != nil {
		t.Fatal(err)
	}
	// A distinct valid config: second prior.
	if err := st.Append(testEntry(t, names[3], 13, "-XX:+UseSerialGC")); err != nil {
		t.Fatal(err)
	}
	// A config that repairs down to the registry defaults (explicit
	// assignment of the default collector): empty canonical key, skipped —
	// the session measures the baseline regardless.
	if err := st.Append(testEntry(t, names[4], 13, "-XX:+UseParallelGC")); err != nil {
		t.Fatal(err)
	}

	reg := flags.NewRegistry()
	priors := Priors(st, reg, fp, 5)
	if len(priors) != 2 {
		t.Fatalf("got %d priors, want 2 (dedupe + invalid skipped): %+v", len(priors), priors)
	}
	if priors[0].Entry.Workload != names[0] || priors[0].Distance != 0 {
		t.Fatalf("first prior is %+v, want the exact-match group", priors[0])
	}
	if priors[0].Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", priors[0].Dropped)
	}
	if !priors[0].Config.Bool("UseG1GC") {
		t.Fatal("prior config lost its collector")
	}
	if got, want := priors[0].Norm, 12.0/20.0; got != want {
		t.Fatalf("Norm = %v, want %v", got, want)
	}
	// Priors are built over the caller's registry, so they can interbreed
	// with session-proposed configs (Crossover panics across registries).
	if priors[0].Config.Key() == priors[1].Config.Key() {
		t.Fatal("duplicate priors after dedupe")
	}
}
