package dispatch

import (
	"bytes"
	"context"
	"errors"
	"net"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/flags"
	"repro/internal/flags/flagstest"
	"repro/internal/jvmsim"
	"repro/internal/runner"
)

// batchFake scripts a BatchEvaluator for fault scenarios: the pool
// places every trial, alone or batched, through batchFn.
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

// callerEval answers every request on the goroutine that sends it, one
// trial after another. Per request it records that goroutine's ID and how
// many goroutines carry the round's profiler label: the measuring
// goroutine and every goroutine started under it.
type callerEval struct {
	*Local
	label string
	mu    sync.Mutex
	gids  []uint64
	peak  int
}

func (e *callerEval) EvaluateBatch(ctx context.Context, req *BatchRequest) (*BatchResult, error) {
	n := labelled(e.label)
	e.mu.Lock()
	e.gids = append(e.gids, goid())
	e.peak = max(e.peak, n)
	e.mu.Unlock()
	return evaluateEach{e.Local}.EvaluateBatch(ctx, req)
}

// goid returns the calling goroutine's ID, which the runtime never reuses.
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, err := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// labelled counts the live goroutines whose profiler labels hold
// round=label; a goroutine inherits the labels of the one that starts it.
func labelled(label string) int {
	var b bytes.Buffer
	pprof.Lookup("goroutine").WriteTo(&b, 1)
	total, group := 0, 0
	for _, line := range strings.Split(b.String(), "\n") {
		if n, _, ok := strings.Cut(line, " @ "); ok {
			group, _ = strconv.Atoi(n)
		} else if strings.HasPrefix(line, "# labels: ") && strings.Contains(line, `"round":"`+label+`"`) {
			total += group
		}
	}
	return total
}

// TestWaveStartsOneGoroutinePerRequestPastTheFirst: a wave ships its
// first request on the measuring goroutine and every further request on a
// goroutine of its own, and starts no goroutine per trial. A 16-trial
// round at Batch 16 is one request on the caller's goroutine and starts
// nothing; at Batch 0 it is 16 one-trial requests on 16 goroutines, one
// of them the caller's.
func TestWaveStartsOneGoroutinePerRequestPastTheFirst(t *testing.T) {
	prof := poolProfile(t, "fop")
	cfgs := batchConfigs(flags.NewRegistry(), 16)
	for _, tc := range []struct{ batch, requests int }{{16, 1}, {0, 16}} {
		// Unique per run, so a goroutine of an earlier run still exiting
		// is never counted.
		label := strconv.Itoa(tc.batch) + "@" + strconv.FormatInt(time.Now().UnixNano(), 10)
		ev := &callerEval{Local: NewLocal(prof, "n0"), label: label}
		pool := newTestPool(t, "fop", ev)
		pool.Batch = tc.batch
		self := goid()
		pprof.Do(context.Background(), pprof.Labels("round", label), func(context.Context) {
			for i, m := range pool.MeasureBatch(cfgs, 1) {
				if m.Failed {
					t.Fatalf("batch=%d trial %d: %+v", tc.batch, i, m)
				}
			}
		})
		distinct := make(map[uint64]bool)
		for _, g := range ev.gids {
			distinct[g] = true
		}
		if len(ev.gids) != tc.requests || len(distinct) != tc.requests || !distinct[self] {
			t.Errorf("batch=%d: %d requests on goroutines %v, want %d on as many goroutines, one of them the caller's (%d)",
				tc.batch, len(ev.gids), ev.gids, tc.requests, self)
		}
		if ev.peak < 1 || ev.peak > tc.requests {
			t.Errorf("batch=%d: %d goroutines of the round alive during a request, want between 1 and %d",
				tc.batch, ev.peak, tc.requests)
		}
	}
}

// TestMeasureIsBatchOfOne: a trial placed through Measure and the same
// trial placed as a MeasureBatch of one leave the same measurement, clock
// and state bytes at any batch size, through cache replays and through
// retries of placements the fleet could not take.
func TestMeasureIsBatchOfOne(t *testing.T) {
	prof := poolProfile(t, "fop")
	reg := flags.NewRegistry()
	cfgs := batchConfigs(reg, 4)
	cfgs = append(cfgs, cfgs[1].Clone(), cfgs[2])
	for _, batch := range []int{0, 1, 16} {
		type result struct {
			ms    []runner.Measurement
			clock float64
			state []byte
		}
		run := func(measure func(p *Pool, cfg *flags.Config) runner.Measurement) result {
			pool := newTestPool(t, "fop", NewLocal(prof, "n0"), NewLocal(prof, "n1"))
			pool.Batch, pool.MaxTries = batch, 2
			// The first attempt of cfgs[0] and cfgs[3] finds no node: a
			// transient node-down the harness retries.
			placed := make(map[string]int)
			pool.FaultHook = func(_, key string, _ int) bool {
				placed[key]++
				return placed[key] <= 2 && (key == cfgs[0].Key() || key == cfgs[3].Key())
			}
			var r result
			for _, cfg := range cfgs {
				r.ms = append(r.ms, measure(pool, cfg))
			}
			r.clock = pool.Elapsed()
			var err error
			if r.state, err = pool.SnapshotState(); err != nil {
				t.Fatal(err)
			}
			return r
		}
		want := run(func(p *Pool, cfg *flags.Config) runner.Measurement { return p.Measure(cfg, 2) })
		got := run(func(p *Pool, cfg *flags.Config) runner.Measurement {
			return p.MeasureBatch([]*flags.Config{cfg}, 2)[0]
		})
		if m := want.ms[0]; m.Failed || m.Attempts != 2 || m.Flakes != 1 {
			t.Fatalf("batch=%d: want one retried node-down before the measurement, got %+v", batch, m)
		}
		if !want.ms[4].FromCache || !want.ms[5].FromCache {
			t.Fatalf("batch=%d: re-proposals should replay from the cache: %+v", batch, want.ms[4:])
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("batch=%d: MeasureBatch of one diverges from Measure:\n%+v\nvs\n%+v", batch, got, want)
		}
	}
}

// TestMeasureBatchDegradesWithoutBatchEvaluator: a node that cannot speak
// evaluate-batch is served through the pool's adapter, which evaluates
// its share of a wave trial by trial, with the same results.
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
	if got := pool.Telemetry.Counter("dispatch_batches_total").Value(); got != 1 {
		t.Errorf("dispatch_batches_total = %d, want 1: the adapter serves the whole share as one batch", got)
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
		fakeEval: fakeEval{name: "half"},
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
	pool.settleBatchFault(nd, len(keys), 0)
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
	pool.settleBatchFault(nd, 2, 4*time.Second)
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
		fakeEval: fakeEval{name: "strict"},
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
	// A rejection settles as one not-ok placement, which the batch's
	// successful siblings may immediately reset. Either way it must never
	// quarantine an otherwise healthy node.
	if nd := pool.nodes[0]; nd.fails > 1 || nd.dead {
		t.Fatalf("rejection settle struck the node too hard: fails=%d dead=%v", nd.fails, nd.dead)
	}
}

// TestDecodeBatchRequestOwnsItsStrings: every string the decoder returns
// is a substring of its own copy of the body, never of the caller's
// buffer, so a caller that overwrites or recycles the body cannot rewrite
// decoded trials — at the ~350-arg width older builds sent too.
func TestDecodeBatchRequestOwnsItsStrings(t *testing.T) {
	reg := flags.NewRegistry()
	wide := flagstest.WideProposal(reg, 1)
	req := &BatchRequest{Trials: []TrialRequest{
		{Key: wide.Key(), Benchmark: "h2", Args: flagstest.WideArgs(wide), RepBase: 7, Reps: 1, TimeoutSeconds: 120, Noise: -1},
		{Key: "MaxHeapSize=536870912", Benchmark: "fop", Args: []string{"-XX:MaxHeapSize=512m"}, Reps: 2, Noise: 0.05},
	}}
	body, err := EncodeBatchRequest(req)
	if err != nil {
		t.Fatal(err)
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
			rem, err := NewSecureRemote(a, nil)
			if err != nil {
				t.Fatal(err)
			}
			evs = append(evs, rem)
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

// TestChaosPlacementExhaustionRetriedOnce: a measurement the fleet cannot
// place under a chaos plan is retried by the harness's one loop — three
// attempts, three placement waves — not by a chaos loop around the pool's
// own, which made it up to three chaos attempts of three pool attempts.
func TestChaosPlacementExhaustionRetriedOnce(t *testing.T) {
	rem, err := NewSecureRemote(refusedAddrs(t, 1)[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := newTestPool(t, "fop", rem)
	defer pool.Close()
	pool.Retry = runner.RetryPolicy{MaxAttempts: 3}
	ch := faultinject.New(pool, faultinject.Plan{Spike: 0.5}, 1)
	m := ch.Measure(batchConfigs(flags.NewRegistry(), 1)[0], 2)
	if m.Failure != runner.NodeDownFailure || !m.Transient || m.Attempts != 3 {
		t.Errorf("want a transient node-down after 3 attempts, got %+v", m)
	}
	tel := pool.Telemetry.Snapshot()
	for series, want := range map[string]float64{
		"runner_attempts_total": 3, "runner_retries_total": 2, "dispatch_trials_total": 3,
	} {
		if tel[series] != want {
			t.Errorf("%s = %g, want %g", series, tel[series], want)
		}
	}
}

// TestWholeRequestRefusalNamedWhenPlacementsRunOut: a node that refuses
// every request whole with a 4xx envelope, as one of the other protocol
// generation does, is placed around like a dead one, but the failure the
// trial ends with when its placements run out names the node, the code
// and the node's text. A dead socket keeps the plain message.
func TestWholeRequestRefusalNamedWhenPlacementsRunOut(t *testing.T) {
	const text = "dispatch: decode batch request: a JSON body is an older protocol generation's"
	refusing := &batchFake{fakeEval: fakeEval{name: "old"}, batchFn: func(*BatchRequest) (*BatchResult, error) {
		return nil, &NodeError{Node: "old", Status: 400, Code: CodeBadPayload, Permanent: true, Err: errors.New(text)}
	}}
	dead := &batchFake{fakeEval: fakeEval{name: "dead"}, batchFn: func(*BatchRequest) (*BatchResult, error) {
		return nil, &NodeError{Node: "dead", Err: errors.New("connection refused")}
	}}
	plain := "dispatch: no evaluator node reachable after 8 placements"
	for _, c := range []struct {
		ev   Evaluator
		want string
	}{
		{refusing, plain + "; node old refused the whole request [bad-payload]: " + text},
		{dead, plain},
	} {
		pool := newTestPool(t, "fop", c.ev)
		m := pool.Measure(flags.NewConfig(flags.NewRegistry()), 1)
		if !m.Failed || m.Failure != runner.NodeDownFailure || !m.Transient {
			t.Fatalf("%s: want a transient node-down failure, got %+v", c.ev.Name(), m)
		}
		if m.FailureMessage != c.want {
			t.Fatalf("%s: failure message\n%q\nwant\n%q", c.ev.Name(), m.FailureMessage, c.want)
		}
	}
}
