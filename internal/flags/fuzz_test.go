package flags

import (
	"strings"
	"testing"
)

// FuzzCommandLineRoundTrip checks the command-line codec's core invariant:
// any argument list that parses renders (via ExplicitArgs) to its
// canonical form, and parsing that reproduces the canonical form exactly:
// the same key, the same explicit assignments, the same rendering. The
// seed corpus in testdata/fuzz replays on every normal `go test` run.
func FuzzCommandLineRoundTrip(f *testing.F) {
	for _, seed := range []string{
		"",
		"-Xmx4g",
		"-Xms512m -Xmx2g",
		"-XX:+UseG1GC -XX:MaxGCPauseMillis=50",
		"-XX:+UseParallelGC -XX:ParallelGCThreads=8",
		"-XX:-TieredCompilation -XX:CICompilerCount=2",
		"-XX:NewRatio=3 -XX:SurvivorRatio=6",
		"-XX:MaxHeapSize=1536m -Xss2m",
		"-XX:+UseSerialGC -XX:TargetSurvivorRatio=60",
		"-XX:GCTimeRatio=19 -XX:+UseStringDeduplication",
	} {
		f.Add(seed)
	}
	reg := NewRegistry()
	f.Fuzz(func(t *testing.T, line string) {
		args := strings.Fields(line)
		cfg, err := ParseArgs(reg, args)
		if err != nil {
			// Rejected input is fine; the invariant covers accepted input.
			t.Skip()
		}
		rendered := cfg.ExplicitArgs()
		back, err := ParseArgs(reg, rendered)
		if err != nil {
			t.Fatalf("accepted %q but rejected its own rendering %q: %v", args, rendered, err)
		}
		if back.Key() != cfg.Key() {
			t.Fatalf("round trip changed the configuration:\n  in   %q\n  out  %q\n  key  %q\n  key' %q",
				args, rendered, cfg.Key(), back.Key())
		}
		// The re-parse holds exactly the canonical form: its explicit
		// assignments are cfg's canonical ones, value for value.
		canon := cfg.Canonical()
		if got, want := strings.Join(back.ExplicitNames(), ","), strings.Join(canon.ExplicitNames(), ","); got != want {
			t.Fatalf("re-parse is not the canonical form:\n  in   %q\n  got  %s\n  want %s", args, got, want)
		}
		for _, id := range canon.ExplicitIDs() {
			if back.GetID(id) != canon.GetID(id) {
				t.Fatalf("re-parse changed %s: %+v, want %+v", reg.FlagByID(id).Name, back.GetID(id), canon.GetID(id))
			}
		}
		// Rendering must be a fixed point: rendering the re-parse gives the
		// same command line again.
		if again := strings.Join(back.ExplicitArgs(), " "); again != strings.Join(rendered, " ") {
			t.Fatalf("rendering is not canonical: %q then %q", rendered, again)
		}
	})
}
