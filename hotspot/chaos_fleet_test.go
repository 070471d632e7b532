package hotspot

import (
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/evald"
	"repro/internal/telemetry"
)

// TestChaosFleetKeepsTelemetryAndBatching: a chaos session against a
// loopback evald node at 16 workers and batch 16 reports the dispatch_*
// series — one placement per attempt that ran, and the node deaths the
// plan injects — and batches its rounds. Neither plan fails an attempt
// transiently, so every round — and the baseline measurement before them
// — is one placement wave, which the node serves in one request, plus
// one per re-dispatch round.
func TestChaosFleetKeepsTelemetryAndBatching(t *testing.T) {
	for _, plan := range []string{"latency-spikes", "node-flaps"} {
		t.Run(plan, func(t *testing.T) {
			nodeTel := telemetry.New()
			node := httptest.NewServer(evald.New(evald.Config{Node: "n0", Telemetry: nodeTel}))
			defer node.Close()
			tel := telemetry.New()
			res, err := Tune(Options{
				Benchmark: "h2", Seed: 7, BudgetMinutes: 60, Workers: 16, Noise: -1,
				Chaos: plan, Nodes: []string{strings.TrimPrefix(node.URL, "http://")}, DispatchBatch: 16,
				Telemetry: tel,
			})
			if err != nil {
				t.Fatal(err)
			}
			s := tel.Snapshot()
			if s["runner_retries_total"] != 0 {
				t.Fatalf("the plan failed %g attempts transiently", s["runner_retries_total"])
			}
			placements := s["runner_attempts_total"]
			for _, kind := range []string{"launch", "corrupt", "crash", "hang"} {
				placements -= s[`chaos_faults_total{kind="`+kind+`"}`]
			}
			if got := s["dispatch_trials_total"]; got == 0 || got != placements {
				t.Errorf("dispatch_trials_total = %g, want the session's %g placements", got, placements)
			}
			if plan == "node-flaps" && s["dispatch_injected_node_down_total"] == 0 {
				t.Error("the plan's injected node deaths went uncounted")
			}
			// One request per wave, the baseline's included, and at most one
			// more per re-dispatched trial.
			waves := s["session_rounds_total"] + 1 + s["dispatch_redispatch_total"]
			requests := nodeTel.Snapshot()["evald_batches_total"]
			if requests == 0 || requests > waves {
				t.Errorf("evald served %g requests for %g waves (%d trials)", requests, waves, res.Trials)
			}
		})
	}
}
