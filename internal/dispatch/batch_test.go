package dispatch

import (
	"context"
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/flags"
	"repro/internal/flags/flagstest"
	"repro/internal/jvmsim"
	"repro/internal/runner"
)

// batchFake scripts a BatchEvaluator for fault scenarios: single-trial
// placements delegate to fakeEval, batches to batchFn.
type batchFake struct {
	fakeEval
	batchFn func(req *BatchRequest) (*BatchResult, error)
}

func (b *batchFake) EvaluateBatch(_ context.Context, req *BatchRequest) (*BatchResult, error) {
	return b.batchFn(req)
}

// batchConfigs builds n distinct configurations (distinct heap sizes, so
// clamping cannot collapse keys) against one shared registry.
func batchConfigs(reg *flags.Registry, n int) []*flags.Config {
	const mb = int64(1) << 20
	cfgs := make([]*flags.Config, n)
	for i := range cfgs {
		c := flags.NewConfig(reg)
		c.SetInt("MaxHeapSize", (256+64*int64(i))*mb)
		if i%2 == 1 {
			c.SetBool("UseG1GC", true)
		}
		cfgs[i] = c
	}
	return cfgs
}

// TestMeasureBatchMatchesInProcess is the batching equivalence claim at
// unit scale: MeasureBatch over a fleet of Local evaluators produces, at
// every batch size, exactly the measurements and virtual clock the
// in-process runner produces for the same configurations — the batch knob
// changes round trips, never bytes.
func TestMeasureBatchMatchesInProcess(t *testing.T) {
	prof := poolProfile(t, "fop")
	reg := flags.NewRegistry()
	for _, batch := range []int{0, 1, 3, 16} {
		ip := runner.NewInProcess(jvmsim.New(), prof)
		cfgs := batchConfigs(reg, 6)
		want := make([]runner.Measurement, len(cfgs))
		for i, c := range cfgs {
			want[i] = ip.Measure(c, 2)
		}

		pool := newTestPool(t, "fop",
			NewLocal(prof, "n0"), NewLocal(prof, "n1"), NewLocal(prof, "n2"))
		pool.Batch = batch
		got := pool.MeasureBatch(cfgs, 2)
		for i := range got {
			if got[i].Key != want[i].Key || got[i].Mean != want[i].Mean ||
				got[i].CostSeconds != want[i].CostSeconds || got[i].Failed != want[i].Failed {
				t.Fatalf("batch=%d trial %d: %+v != in-process %+v", batch, i, got[i], want[i])
			}
		}
		if pool.Elapsed() != ip.Elapsed() {
			t.Fatalf("batch=%d: virtual clocks diverged: pool %v, in-process %v",
				batch, pool.Elapsed(), ip.Elapsed())
		}
	}
}

// TestMeasureBatchDegradesWithoutBatchEvaluator: nodes that cannot speak
// evaluate-batch serve their share of a wave trial by trial, with the
// same results.
func TestMeasureBatchDegradesWithoutBatchEvaluator(t *testing.T) {
	prof := poolProfile(t, "fop")
	local := NewLocal(prof, "plain")
	plain := &fakeEval{name: "plain", fn: func(req *TrialRequest) (*TrialResult, error) {
		return local.Evaluate(context.Background(), req)
	}}
	reg := flags.NewRegistry()
	cfgs := batchConfigs(reg, 4)

	ip := runner.NewInProcess(jvmsim.New(), prof)
	want := make([]runner.Measurement, len(cfgs))
	for i, c := range cfgs {
		want[i] = ip.Measure(c, 1)
	}

	pool := newTestPool(t, "fop", plain)
	pool.Batch = 16
	got := pool.MeasureBatch(cfgs, 1)
	for i := range got {
		if got[i].Failed || got[i].Mean != want[i].Mean {
			t.Fatalf("trial %d: %+v != %+v", i, got[i], want[i])
		}
	}
	if pool.Telemetry.Counter("dispatch_batches_total").Value() != 0 {
		t.Error("a non-batchable node must never be counted as serving a batch")
	}
}

// TestMeasureBatchPartialSalvage: a node that dies after serving part of
// a batch loses only the unsettled remainder — salvage re-dispatches
// those trials under the same repBase, so every measurement still matches
// the in-process reference byte for byte.
func TestMeasureBatchPartialSalvage(t *testing.T) {
	prof := poolProfile(t, "fop")
	backing := NewLocal(prof, "half")
	faults := 0
	half := &batchFake{
		fakeEval: fakeEval{name: "half", fn: func(req *TrialRequest) (*TrialResult, error) {
			return backing.Evaluate(context.Background(), req)
		}},
		batchFn: func(req *BatchRequest) (*BatchResult, error) {
			res, err := backing.EvaluateBatch(context.Background(), req)
			if err != nil {
				return nil, err
			}
			if faults == 0 && len(res.Entries) > 1 {
				// Serve the first half, blank the rest: those placements
				// never measured anywhere and must salvage.
				faults++
				for i := len(res.Entries) / 2; i < len(res.Entries); i++ {
					res.Entries[i] = BatchEntry{Error: &ErrorEnvelope{Error: "evald: worker crashed", Code: CodeInternal}}
				}
			}
			return res, nil
		},
	}
	reg := flags.NewRegistry()
	cfgs := batchConfigs(reg, 6)

	ip := runner.NewInProcess(jvmsim.New(), prof)
	want := make([]runner.Measurement, len(cfgs))
	for i, c := range cfgs {
		want[i] = ip.Measure(c, 2)
	}

	pool := newTestPool(t, "fop", half, NewLocal(prof, "whole"))
	pool.Batch = 16
	got := pool.MeasureBatch(cfgs, 2)
	for i := range got {
		if got[i].Failed {
			t.Fatalf("trial %d should salvage: %+v", i, got[i])
		}
		if got[i].Mean != want[i].Mean || got[i].CostSeconds != want[i].CostSeconds {
			t.Fatalf("salvaged trial %d diverged: %+v != %+v", i, got[i], want[i])
		}
		if got[i].Attempts != want[i].Attempts || got[i].Flakes != want[i].Flakes {
			t.Fatalf("trial %d: salvage leaked into retry accounting: %+v != %+v", i, got[i], want[i])
		}
	}
	if pool.Elapsed() != ip.Elapsed() {
		t.Fatalf("salvage cost virtual time: pool %v, in-process %v", pool.Elapsed(), ip.Elapsed())
	}
	if faults != 1 {
		t.Fatalf("fault script fired %d times, want 1", faults)
	}
}

// TestBatchFaultStrikesBreakerOnce: one failed evaluate-batch round trip
// is one transport fault — the breaker advances once, not once per trial,
// so a single TCP reset cannot insta-quarantine a healthy node.
func TestBatchFaultStrikesBreakerOnce(t *testing.T) {
	pool := newTestPool(t, "fop", NewLocal(poolProfile(t, "fop"), "n"))
	clock := time.Unix(1000, 0)
	pool.now = func() time.Time { return clock }
	nd := pool.nodes[0]

	keys := []string{"k1", "k2", "k3", "k4"}
	for _, k := range keys {
		pool.acquire(k)
	}
	pool.settleBatchFault(nd, keys, 0)
	if nd.fails != 1 {
		t.Fatalf("one batch fault = one strike, got %d", nd.fails)
	}
	if nd.inflight != 0 {
		t.Fatalf("every placement of the batch must settle: inflight=%d", nd.inflight)
	}
	if nd.dead {
		t.Fatal("a single batch fault must not quarantine")
	}
}

// TestBatchShedFloorsCooldown: a 429 for the whole batch floors the
// node's cooldown with its Retry-After and takes no breaker strike.
func TestBatchShedFloorsCooldown(t *testing.T) {
	pool := newTestPool(t, "fop", NewLocal(poolProfile(t, "fop"), "n"))
	clock := time.Unix(1000, 0)
	pool.now = func() time.Time { return clock }
	nd := pool.nodes[0]

	pool.acquire("k1")
	pool.acquire("k2")
	pool.settleBatchFault(nd, []string{"k1", "k2"}, 4*time.Second)
	if nd.fails != 0 || nd.dead {
		t.Fatalf("shed batch must not strike the breaker: fails=%d dead=%v", nd.fails, nd.dead)
	}
	if want := clock.Add(4 * time.Second); !nd.until.Equal(want) {
		t.Fatalf("cooldown floor = %v, want %v", nd.until, want)
	}
	if pool.Telemetry.Counter("dispatch_node_shed_total").Value() != 1 {
		t.Error("shed batches should be counted")
	}
}

// TestBatchPerEntryRejectionCondemnsOnlyOwnTrial: a deterministic 4xx
// envelope inside an otherwise healthy batch condemns exactly its own
// trial; siblings settle normally and the node takes no strike.
func TestBatchPerEntryRejectionCondemnsOnlyOwnTrial(t *testing.T) {
	prof := poolProfile(t, "fop")
	backing := NewLocal(prof, "strict")
	reg := flags.NewRegistry()
	cfgs := batchConfigs(reg, 4)
	condemned := cfgs[2].Key()

	strict := &batchFake{
		fakeEval: fakeEval{name: "strict", fn: func(req *TrialRequest) (*TrialResult, error) {
			if req.Key == condemned {
				return nil, &NodeError{Node: "strict", Status: 400, Code: CodeBadFlag, Permanent: true,
					Err: errors.New("unknown flag")}
			}
			return backing.Evaluate(context.Background(), req)
		}},
		batchFn: func(req *BatchRequest) (*BatchResult, error) {
			res, err := backing.EvaluateBatch(context.Background(), req)
			if err != nil {
				return nil, err
			}
			for i := range req.Trials {
				if req.Trials[i].Key == condemned {
					res.Entries[i] = BatchEntry{Error: &ErrorEnvelope{Error: "bad flag", Code: CodeBadFlag}}
				}
			}
			return res, nil
		},
	}
	pool := newTestPool(t, "fop", strict)
	pool.Batch = 16
	got := pool.MeasureBatch(cfgs, 1)
	for i := range got {
		if cfgs[i].Key() == condemned {
			if !got[i].Failed || got[i].Failure != runner.NodeRejectedFailure {
				t.Fatalf("condemned trial: %+v", got[i])
			}
			continue
		}
		if got[i].Failed {
			t.Fatalf("sibling trial %d condemned by a per-entry rejection: %+v", i, got[i])
		}
	}
	// A rejection settles like its single-dispatch twin: one not-ok
	// placement, which the batch's successful siblings may immediately
	// reset. Either way it must never quarantine an otherwise healthy node.
	if nd := pool.nodes[0]; nd.fails > 1 || nd.dead {
		t.Fatalf("rejection settle diverged from single dispatch: fails=%d dead=%v", nd.fails, nd.dead)
	}
}

// TestDecodeBatchRequestOwnsItsStrings: every string the decoder returns
// is a substring of its own copy of the body, never of the caller's
// buffer, so a caller that overwrites or recycles the body cannot rewrite
// decoded trials — at production width too.
func TestDecodeBatchRequestOwnsItsStrings(t *testing.T) {
	reg := flags.NewRegistry()
	wide := flagstest.Proposal(reg, 1)
	req := &BatchRequest{Trials: []TrialRequest{
		{Key: wide.Key(), Benchmark: "h2", Args: wide.ExplicitArgs(), RepBase: 7, Reps: 1, TimeoutSeconds: 120, Noise: -1},
		{Key: "MaxHeapSize=536870912", Benchmark: "fop", Args: []string{"-XX:MaxHeapSize=512m"}, Reps: 2, Noise: 0.05},
	}}
	body, ok := encodeBatchRequest(req)
	if !ok {
		t.Fatal("appender refused a stationary batch")
	}
	got, err := DecodeBatchRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 'x'
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("decoded batch changed when the body was overwritten:\ngot  %+v\nwant %+v", got, req)
	}
}

// refusedAddrs returns n loopback addresses nothing listens on: ephemeral
// ports bound and released, so a dial is refused at once.
func refusedAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}
	return addrs
}

// TestBatchedDeadFleetFailsFast: batched and unbatched placement share one
// loop, so a batched round against a fleet that refuses every connection
// skips the re-dispatch backoff once every node is breaker-dead, exactly
// like single-trial placement — instead of sleeping out every one of the
// try budget's rounds — and ends in the same node-down verdicts.
func TestBatchedDeadFleetFailsFast(t *testing.T) {
	addrs := refusedAddrs(t, 3)
	cfgs := batchConfigs(flags.NewRegistry(), 4)
	run := func(batch int) ([]runner.Measurement, map[string]float64, time.Duration) {
		var evs []Evaluator
		for _, a := range addrs {
			evs = append(evs, NewRemote(a))
		}
		pool := newTestPool(t, "fop", evs...)
		defer pool.Close()
		pool.Batch = batch
		t0 := time.Now()
		ms := pool.MeasureBatch(cfgs, 2)
		return ms, pool.Telemetry.Snapshot(), time.Since(t0)
	}
	wantMs, wantTel, _ := run(0)
	gotMs, gotTel, took := run(4)
	if took > 2*time.Second {
		t.Errorf("batched round against a dead fleet took %v, want under 2s", took)
	}
	for i, m := range gotMs {
		if m.Failure != runner.NodeDownFailure || !m.Transient || m.Attempts != 3 {
			t.Errorf("trial %d: want a transient node-down after 3 attempts, got %+v", i, m)
		}
	}
	if !reflect.DeepEqual(gotMs, wantMs) {
		t.Errorf("batched measurements differ from unbatched:\n%+v\nvs\n%+v", gotMs, wantMs)
	}
	// Every series matches except the breaker's own accounting: a failed
	// batch round trip strikes its node once, not once per trial (see
	// TestBatchFaultStrikesBreakerOnce), so strikes, quarantines and the
	// forced probes they cause legitimately differ.
	breaker := map[string]bool{
		"dispatch_node_failures_total": true, "dispatch_node_quarantined_total": true,
		"dispatch_forced_probes_total": true,
	}
	for series, want := range wantTel {
		if !breaker[series] && gotTel[series] != want {
			t.Errorf("%s: batched %g, unbatched %g", series, gotTel[series], want)
		}
	}
	for series := range gotTel {
		if _, ok := wantTel[series]; !ok && !breaker[series] {
			t.Errorf("%s: only the batched round reports it", series)
		}
	}
	if wantTel["dispatch_no_node_total"] != 12 {
		t.Errorf("dispatch_no_node_total = %g, want 12 (4 trials × 3 attempts)", wantTel["dispatch_no_node_total"])
	}
}
