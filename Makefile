# Developer entry points. `make verify` is the tier-1 gate (see ROADMAP.md).

.PHONY: verify build test bench bench-check cover crash-matrix overload-drill dist-drill transfer-drill drift-drill

verify:
	./scripts/verify.sh

cover:
	./scripts/cover.sh

# The crash drills: kill fixed-seed sessions (and the job farm) mid-run,
# resume from checkpoints, and demand byte-identical results — including a
# second kill inside the resume's replay prefix, and a resume from a
# version 1 checkpoint written by the last build that wrote one. Run under
# -race because recovery code is exactly where concurrency bugs hide.
crash-matrix:
	go test -race -count=1 \
	  -run 'TestKillAndResume|TestKillDuringReplayAndResume|TestV1CheckpointResumes|TestSessionKillAndResume|TestSessionCheckpoint|TestDurableServer|TestCLIAutotuneCrashAndResume' \
	  ./hotspot ./internal/core ./internal/httpapi .

# The overload drills: shed a submission burst against a bounded queue
# (while polls and cancels keep answering), rate-limit a greedy client,
# hedge stragglers deterministically, quarantine a broken flag subtree,
# and degrade budget-killed runs to best-so-far. A journal compaction
# triggered by a verdict must keep that verdict across restarts, every
# time. See docs/OVERLOAD.md.
overload-drill:
	go test -race -count=1 \
	  -run 'TestOverloadBurst|TestPerClientRateLimit|TestAdmission|TestShutdownSheds|TestJournalCompaction|TestCompactionCrash|TestHedging|TestQuarantine|TestSessionDegraded|TestHedgedSessionResumes|TestCLIAutotuneBudgetDegrades' \
	  ./internal/httpapi ./internal/core .
	go test -race -count=20 -run 'TestJournalCompactionKeepsTriggeringVerdict' ./internal/httpapi

# The distributed drills: the evaluation plane's equivalence and survival
# story. Fixed-seed sessions against real evald sockets must match the
# in-process run byte for byte — through node kills (re-dispatch), whole-
# fleet death (degrade to best-so-far), and flapping nodes under hedging.
# TestCLIDistDrill spawns 3 evald processes and SIGKILLs one mid-session.
# Batched placement must fail as fast as single-trial placement on a dead
# fleet, and every runner — the pool included — must keep the one harness
# contract.
dist-drill:
	go test -race -count=1 \
	  -run 'TestDifferentialParallelWorkers|TestKillOneNodeByteIdentical|TestKillAllNodesDegradesToBestSoFar|TestNodeFlapsDuringHedgeByteIdentical|TestDifferentialBatchedDispatch|TestJoinDuringHedgeByteIdentical|TestDrainDuringBatchByteIdentical|TestReRegisterAfterFlapByteIdentical|TestMTLSFailClosed|TestBearerTokenFailClosed|TestBatchedDeadFleetFailsFast|TestHarnessContract|TestCLIDistDrill' \
	  ./internal/dispatch ./internal/runner .

# The transfer drills: the cross-workload knowledge base's survival and
# equivalence story. A warm-started session at half the cold trial budget
# must reach the cold best; a store torn mid-record (a kill during an
# append) must salvage its intact prefix and keep warm-starting; and a
# warm-started session must be byte-identical in-process and against a
# real evald fleet. A v1 store checked in by the last build that wrote v1
# must migrate to v2 and warm-start the golden session byte for byte, and
# concurrent sessions sharing one store must never lose or renumber a
# winner. See docs/TRANSFER.md.
transfer-drill:
	go test -race -count=1 \
	  -run 'TestTransferWarmStartHalvesTrialBudget|TestTransferOffLeavesSessionByteIdentical|TestTransferBogusStoreDegradesToCold|TestTransferV1StoreMigrationDrill|TestTransferStoreClosedOnEveryPath|TestStoreSalvagesTornTail|TestStoreMigratesV1|TestStoreSharedHandles|TestTuneTransferJob|TestCLITransferStoreTornTailDrill|TestCLITransferFleetEquivalence' \
	  ./hotspot ./internal/transfer ./internal/httpapi .
	go test -race -count=10 -run 'TestStoreConcurrentOpenAppendClose' ./internal/transfer

# The drift drills: the live re-tuning story end to end. A phase-shifting
# workload under the armed detector must open a recovery epoch whose winner
# beats the stale one on the post-shift profile; stationary sessions must
# never false-positive; a session killed mid-epoch must resume to the
# byte-identical outcome; drift winners must be filed in the transfer store
# under the shifted regime's fingerprint; and the job farm must surface the
# per-epoch breakdown (and legacy degraded-reason strings) in polls.
# See docs/DRIFT.md.
drift-drill:
	go test -race -count=1 \
	  -run 'TestDrift|TestTuneDrift|TestDetectsUpwardShift|TestStationaryNoFalsePositive|TestOneShotUntilReset|TestDegradedReasonVisibleInPoll|TestDurableLegacyJournalDegradedReason|TestPhaseS|TestDefaultSchedule' \
	  ./internal/drift ./internal/core ./hotspot ./internal/httpapi ./internal/jvmsim

build:
	go build ./...

test:
	go test ./...

# Record the next BENCH_<n>.json trajectory point. bench-check reruns the
# suite and fails on >10% regression against the latest recorded point.
bench:
	./scripts/bench.sh

bench-check:
	./scripts/bench.sh -check
