package hotspot

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/jvmsim"
	"repro/internal/transfer"
	"repro/internal/workload"
)

// TestTuneDriftOpensEpoch is the facade-level acceptance check: Tune with
// Options.Drift and a chaos plan that schedules the shift produces a result
// whose per-epoch breakdown carries the drift provenance, and the reported
// best is the post-drift regime's.
func TestTuneDriftOpensEpoch(t *testing.T) {
	res, err := Tune(Options{
		Benchmark:     "xalan",
		BudgetMinutes: 150,
		Seed:          7,
		Workers:       3,
		Noise:         -1,
		Drift:         true,
		Chaos:         "drift-at=40",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) < 2 {
		t.Fatalf("drifting session opened no re-tuning epoch: %d epochs", len(res.Epochs))
	}
	first := res.Epochs[0]
	// Epoch.Phase is the phase the epoch CLOSED under: the pre-drift epoch
	// closes only once the detector confirms, a few trials after the shift.
	if first.Epoch != 0 || first.Phase != 1 {
		t.Fatalf("first epoch should close under the post-shift phase: %+v", first)
	}
	if first.DriftTrial <= 40 || first.DriftStat <= 0 || first.DriftScore <= 0 {
		t.Fatalf("epoch 0 closed without drift provenance past the shift at 40: %+v", first)
	}
	last := res.Epochs[len(res.Epochs)-1]
	if last.DriftTrial != 0 || last.DriftStat != 0 {
		t.Fatalf("final epoch carries drift provenance: %+v", last)
	}
	if last.Phase == 0 || last.StaleWall <= 0 {
		t.Fatalf("final epoch missing the demoted incumbent's context: %+v", last)
	}
	if len(last.CommandLine) == 0 {
		t.Fatalf("final epoch's best should render to a command line: %+v", last)
	}
	if res.BestWall != last.BestWall {
		t.Fatalf("session best %.4f != final epoch best %.4f", res.BestWall, last.BestWall)
	}
}

// TestTuneDriftScenarioDeterministic: the named drift-midrun scenario arms
// the same schedule, and two identical sessions agree byte-for-byte on the
// epoch breakdown.
func TestTuneDriftScenarioDeterministic(t *testing.T) {
	opts := Options{
		Benchmark:     "xalan",
		BudgetMinutes: 150,
		Seed:          7,
		Workers:       3,
		Noise:         -1,
		Drift:         true,
		Chaos:         "drift-midrun",
	}
	a, err := Tune(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Epochs) < 2 {
		t.Fatalf("drift-midrun opened no epoch: %d", len(a.Epochs))
	}
	b, err := Tune(opts)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a.Epochs)
	jb, _ := json.Marshal(b.Epochs)
	if string(ja) != string(jb) {
		t.Fatalf("epochs diverged across identical sessions:\n%s\n%s", ja, jb)
	}
	if a.BestWall != b.BestWall || a.Best.Key() != b.Best.Key() {
		t.Fatal("identical drifting sessions must reproduce the outcome")
	}
}

// TestTuneDriftObliviousKeepsQuiet: a scheduled shift without the detector
// armed still tunes (the workload just degrades) and reports no epochs —
// and an armed detector on a stationary workload never fires.
func TestTuneDriftObliviousKeepsQuiet(t *testing.T) {
	res, err := Tune(Options{
		Benchmark: "fop", BudgetMinutes: 100, Seed: 3, Noise: -1,
		Chaos: "drift-at=30",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs != nil {
		t.Fatalf("detector-off session reported epochs: %+v", res.Epochs)
	}
	armed, err := Tune(Options{
		Benchmark: "fop", BudgetMinutes: 100, Seed: 3, Noise: -1,
		Drift: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(armed.Epochs) != 1 {
		t.Fatalf("stationary armed session should report exactly its single epoch: %+v", armed.Epochs)
	}
	if e := armed.Epochs[0]; e.DriftTrial != 0 || e.StaleWall != 0 {
		t.Fatalf("stationary epoch carries drift provenance: %+v", e)
	}
}

// TestDriftOptionValidation: malformed drift options fail fast with clear
// errors instead of tuning with a misconfigured detector.
func TestDriftOptionValidation(t *testing.T) {
	if _, err := Tune(Options{Benchmark: "fop", DriftSensitivity: 2}); err == nil ||
		!strings.Contains(err.Error(), "requires Drift") {
		t.Errorf("DriftSensitivity without Drift: %v", err)
	}
	if _, err := Tune(Options{Benchmark: "fop", Drift: true, DriftSensitivity: -1}); err == nil ||
		!strings.Contains(err.Error(), "positive") {
		t.Errorf("negative DriftSensitivity: %v", err)
	}
}

// TestTuneCommonRejectsDrift: suite-common tuning has no single workload to
// drift, so both the option and a drift-scheduling chaos plan are rejected.
func TestTuneCommonRejectsDrift(t *testing.T) {
	suite, _ := Suite("dacapo")
	if _, err := TuneCommon(suite[:2], Options{Drift: true}); err == nil ||
		!strings.Contains(err.Error(), "single-workload") {
		t.Errorf("TuneCommon with Drift: %v", err)
	}
	if _, err := TuneCommon(suite[:2], Options{Chaos: "drift-at=10"}); err == nil ||
		!strings.Contains(err.Error(), "single-workload") {
		t.Errorf("TuneCommon with drift-at chaos: %v", err)
	}
}

// TestResultDegradedJSONTags pins the poll-visibility bugfix: degradation
// state serializes under snake_case keys like every other Result field, and
// pre-fix JSON (PascalCase keys, as journaled by older farm builds) still
// decodes — Go's case folding covers "Degraded" but NOT "DegradedReason",
// which is exactly the field that used to vanish on replay.
func TestResultDegradedJSONTags(t *testing.T) {
	r := Result{Degraded: true, DegradedReason: "wall-clock budget exhausted"}
	b, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"degraded":true`) ||
		!strings.Contains(string(b), `"degraded_reason":"wall-clock budget exhausted"`) {
		t.Fatalf("snake_case keys missing: %s", b)
	}
	var rt Result
	if err := json.Unmarshal(b, &rt); err != nil {
		t.Fatal(err)
	}
	if !rt.Degraded || rt.DegradedReason != r.DegradedReason {
		t.Fatalf("round trip lost degradation state: %+v", rt)
	}

	legacy := []byte(`{"benchmark":"h2","Degraded":true,"DegradedReason":"session canceled"}`)
	var lr Result
	if err := json.Unmarshal(legacy, &lr); err != nil {
		t.Fatal(err)
	}
	if !lr.Degraded || lr.DegradedReason != "session canceled" {
		t.Fatalf("legacy PascalCase keys not honored: %+v", lr)
	}

	// New keys win over stale legacy ones when both appear.
	mixed := []byte(`{"degraded_reason":"new","DegradedReason":"old"}`)
	var mr Result
	if err := json.Unmarshal(mixed, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.DegradedReason != "new" {
		t.Fatalf("legacy key overrode the current one: %+v", mr)
	}
}

// TestDriftTransferRecordsEpochWinners: a drift session over a knowledge
// base files each drift-opened epoch's winner under the SHIFTED profile's
// fingerprint, and the per-epoch warm-start hook finds it again.
func TestDriftTransferRecordsEpochWinners(t *testing.T) {
	dir := t.TempDir()
	res, err := Tune(Options{
		Benchmark:     "xalan",
		BudgetMinutes: 150,
		Seed:          7,
		Workers:       3,
		Noise:         -1,
		Drift:         true,
		Chaos:         "drift-at=40",
		TransferDir:   dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) < 2 {
		t.Fatalf("no re-tuning epoch opened: %d", len(res.Epochs))
	}
	x := res.Transfer
	if x == nil || !x.Recorded {
		t.Fatalf("session winner not recorded: %+v", x)
	}
	if x.EpochRecords < 1 {
		t.Fatalf("drift session recorded no per-epoch winners: %+v", x)
	}

	// The store now answers for the shifted regime: the nearest stored
	// fingerprint to the post-shift profile is that profile itself.
	base, _ := workload.ByName("xalan")
	shifted, err := jvmsim.DefaultSchedule([]int{40}).ProfileAt(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := transfer.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != 1+x.EpochRecords {
		t.Fatalf("store holds %d entries, want session record + %d epoch records", st.Len(), x.EpochRecords)
	}
	near := st.Nearest(transfer.FingerprintOf(shifted), 1)
	if len(near) == 0 || near[0].Distance != 0 {
		t.Fatalf("shifted-profile fingerprint not in the store: %+v", near)
	}

	// The epoch-prior hook resolves the same lookup for a later session.
	ts := transferSetup(Options{TransferDir: dir}, base)
	if ts.store == nil {
		t.Fatal("store reopen failed")
	}
	defer ts.store.Close()
	hook := ts.epochPriors(base, jvmsim.DefaultSchedule([]int{40}), 3)
	if hook == nil {
		t.Fatal("epochPriors hook nil with an open store")
	}
	priors := hook(1, 1)
	if len(priors) == 0 {
		t.Fatal("no priors for the shifted regime despite a stored epoch winner")
	}
	for _, p := range priors {
		if p.Cfg == nil || p.Norm <= 0 {
			t.Fatalf("malformed prior: %+v", p)
		}
	}
	// Out-of-range phases degrade to no priors — not to the base profile's
	// (ProfileAt rejects phases the schedule does not define).
	if got := hook(2, 99); got != nil {
		t.Fatalf("out-of-range phase yielded priors: %+v", got)
	}
}

// TestDriftEpochsPersist: the saved outcome of a drift session carries the
// epoch breakdown, and a stationary session's archive stays free of the key
// (byte-compatibility with pre-drift archives).
func TestDriftEpochsPersist(t *testing.T) {
	res, err := Tune(Options{
		Benchmark: "fop", BudgetMinutes: 100, Seed: 5, Workers: 2, Noise: -1,
		Drift: true, Chaos: "drift-at=30",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) < 2 {
		t.Fatalf("no epoch opened: %d", len(res.Epochs))
	}
	saved := res.saved()
	if len(saved.Epochs) == 0 {
		t.Fatal("saved outcome dropped the epoch breakdown")
	}
	var eps []Epoch
	if err := json.Unmarshal(saved.Epochs, &eps); err != nil {
		t.Fatal(err)
	}
	if len(eps) != len(res.Epochs) || eps[0].DriftTrial != res.Epochs[0].DriftTrial {
		t.Fatalf("saved epochs diverge from the result's: %+v vs %+v", eps, res.Epochs)
	}

	plain, err := Tune(Options{Benchmark: "fop", BudgetMinutes: 60, Seed: 5, Noise: -1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(plain.saved())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), `"epochs"`) {
		t.Fatalf("stationary archive grew an epochs key: %s", b)
	}
}
