package dispatch_test

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/flags"
	"repro/internal/runner"
	"repro/internal/telemetry"
)

// tamper fronts a node and corrupts every trial it forwards the same way,
// so the node's dispatch.Eval rejects the trial whichever way it arrives.
type tamper struct {
	dispatch.Evaluator
	fix func(*dispatch.TrialRequest)
}

func (t tamper) Evaluate(ctx context.Context, req *dispatch.TrialRequest) (*dispatch.TrialResult, error) {
	q := *req
	t.fix(&q)
	return t.Evaluator.Evaluate(ctx, &q)
}

func (t tamper) EvaluateBatch(ctx context.Context, req *dispatch.BatchRequest) (*dispatch.BatchResult, error) {
	q := &dispatch.BatchRequest{Trials: slices.Clone(req.Trials)}
	for i := range q.Trials {
		t.fix(&q.Trials[i])
	}
	return t.Evaluator.(dispatch.BatchEvaluator).EvaluateBatch(ctx, q)
}

// TestRejectedTrialMeasurementsAgree: a trial a node's dispatch.Eval
// rejects is one runner.Measurement, equal in every field, whether the
// pool placed it through Measure or MeasureBatch, at any batch size, on
// a Local node or a loopback evald, on one node or two in either order.
// The verdict carries the node's code and diagnostic, never a node name
// or an HTTP status.
func TestRejectedTrialMeasurementsAgree(t *testing.T) {
	prof := profileOf(t, "fop")
	reg := flags.NewRegistry()
	heap := flags.NewConfig(reg)
	heap.SetInt("MaxHeapSize", 1<<30)
	g1 := flags.NewConfig(reg)
	g1.SetBool("UseG1GC", true)
	cfgs := []*flags.Config{flags.NewConfig(reg), heap, g1}

	_, remotes := startFleet(t, 2)
	transports := map[string][]dispatch.Evaluator{
		"local": {dispatch.NewLocal(prof, "local-a"), dispatch.NewLocal(prof, "local-b")},
		"evald": remotes,
	}
	fleets := map[string][]int{"one": {0}, "two": {0, 1}, "two-reversed": {1, 0}}
	for code, fix := range map[string]func(*dispatch.TrialRequest){
		dispatch.CodeKeyMismatch: func(q *dispatch.TrialRequest) { q.Key += ",Tampered=true" },
		dispatch.CodeBadFlag: func(q *dispatch.TrialRequest) {
			q.Args = append(slices.Clip(q.Args), "-XX:+NoSuchFlag")
		},
	} {
		var want []runner.Measurement
		for transport, nodes := range transports {
			for fleet, order := range fleets {
				for _, batch := range []int{0, 1, 16} {
					for _, via := range []string{"Measure", "MeasureBatch"} {
						var evs []dispatch.Evaluator
						for _, i := range order {
							evs = append(evs, tamper{nodes[i], fix})
						}
						pool, err := dispatch.NewPool(prof, evs...)
						if err != nil {
							t.Fatal(err)
						}
						pool.Telemetry = telemetry.New()
						pool.Batch = batch
						var got []runner.Measurement
						if via == "Measure" {
							for _, c := range cfgs {
								got = append(got, pool.Measure(c, 2))
							}
						} else {
							got = pool.MeasureBatch(cfgs, 2)
						}
						where := code + "/" + transport + "/" + fleet + "/" + via
						if want == nil {
							want = got
						} else if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s at batch %d:\n got %+v\nwant %+v", where, batch, got, want)
						}
					}
				}
			}
		}
		for i, m := range want {
			if !m.Failed || m.Failure != runner.NodeRejectedFailure || m.Transient || m.Key != cfgs[i].Key() {
				t.Fatalf("%s: trial %d is not a node-rejected verdict: %+v", code, i, m)
			}
			msg := m.FailureMessage
			if !strings.Contains(msg, "["+code+"]") {
				t.Errorf("%s: verdict %q lacks the node's code", code, msg)
			}
			for _, leak := range []string{"local-", "127.0.0.1", "http", "batch"} {
				if strings.Contains(msg, leak) {
					t.Errorf("%s: verdict %q names %q", code, msg, leak)
				}
			}
		}
	}
}
