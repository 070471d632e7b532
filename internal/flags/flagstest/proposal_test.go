package flagstest_test

import (
	"testing"

	"repro/internal/flags"
	"repro/internal/flags/flagstest"
)

// TestWideProposalKeepsProductionWidth guards the inputs that price the
// ~350-arg width older builds sent: a WideProposal renders at least 300
// args, keys like its Proposal, and the Proposal itself stays narrow.
func TestWideProposalKeepsProductionWidth(t *testing.T) {
	reg := flags.NewRegistry()
	for seed := int64(1); seed <= 16; seed++ {
		p, w := flagstest.Proposal(reg, seed), flagstest.WideProposal(reg, seed)
		if n := len(flagstest.WideArgs(w)); n < 300 {
			t.Errorf("seed %d: the wide form renders %d args, want at least 300", seed, n)
		}
		if w.Key() != p.Key() {
			t.Errorf("seed %d: wide key %q, proposal key %q", seed, w.Key(), p.Key())
		}
		if n := len(p.ExplicitIDs()); n > 30 {
			t.Errorf("seed %d: the proposal holds %d explicit flags, want its canonical form only", seed, n)
		}
	}
}
