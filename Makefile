# Developer entry points. `make verify` is the tier-1 gate (see ROADMAP.md).

.PHONY: verify build test bench bench-check cover crash-matrix overload-drill dist-drill transfer-drill drift-drill

verify:
	./scripts/verify.sh

cover:
	./scripts/cover.sh

# The crash drills: kill fixed-seed sessions (and the job farm) mid-run,
# resume from checkpoints, and demand byte-identical results — including a
# second kill inside the resume's replay prefix, and resumes from a version
# 1, 2, 3 and 4 chaos checkpoint, each written by the last build that wrote
# its version (the version 2 one under launch, crash, spike and straggle
# faults with hedging and quarantine, the version 3 one under hang faults
# with a long chain of nested chaos segments, which this build folds into
# its one runner-state stream, the version 4 one a drifting session whose
# JSON records and runner state this build extends in binary). A
# checkpoint's first write must sweep the temp a crash inside an earlier
# one stranded, a session that ends must leave its last trial in the file,
# and resuming a finished file must leave it untouched. The byte gate runs
# ten times over: the file the background writer leaves must be the same
# bytes on every run and after every kill and resume. Run under -race
# because recovery code is exactly where concurrency bugs hide. Every way
# a session ends — budgets, the wall clock, a cancel, a crash-point panic,
# a diverged resume — must stop the session's measuring goroutines, and a
# crossover child must hold exactly the canonical form the reference
# implementation keys, ten times over as well.
crash-matrix:
	go test -race -count=1 \
	  -run 'TestKillAndResume|TestKillDuringReplayAndResume|TestV1CheckpointResumes|TestV2CheckpointResumes|TestV3CheckpointResumes|TestV4CheckpointResumes|TestSessionKillAndResume|TestSessionCheckpoint|TestDurableServer|TestCLIAutotuneCrashAndResume|TestKeeperSweepsStaleTemps|TestFinalCheckpointHoldsLastTrial|TestResumeOfFinishedFileWritesNothing' \
	  ./hotspot ./internal/core ./internal/httpapi ./internal/checkpoint .
	go test -race -count=10 -run 'TestCheckpointBytesReproducible|TestCheckpointBytesSurviveKillAndResume' ./hotspot
	go test -race -count=10 -run 'TestSessionStopsItsMeasurers|TestCrossoverStoresCanonicalForm' ./internal/core ./internal/flags

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
# contract and key an explicit -XX:+UseParallelGC apart from its absence.
# A rejected trial must be one measurement whichever way it was placed
# (any batch size, Local or evald, any fleet order); placements must
# append nothing to the fleet journal, and a journal written by the last
# build that journaled placements must replay to the same membership. A
# session's background checkpoint writer must leave the same bytes against
# a loopback node, one trial or 16 at a time, as in-process, and the
# controller must grant a joining node the lease it asks for — while a node
# whose join interval asks for more than any controller grants must refuse
# to start rather than retry forever. The pool measures along one path: a
# round's retries run in lockstep exactly as one-by-one measurements would,
# a trial measured alone is a batch of one, and a wave starts one goroutine
# per request past the first and none per trial. A chaos session batches
# too: against a loopback node it reports the dispatch_* series and sends
# no more requests than it has placement waves, and a measurement the
# fleet cannot place under chaos is retried by the harness's one loop.
# The binary evaluate-batch wire must drop no field of a request or an
# answer, refuse a malformed body whole (a JSON one naming the older
# protocol generation), own every string it decodes on both sides, and
# turn an answer with a non-finite float into a 500 internal envelope. A
# trial whose placements run out against a node refusing every request
# whole must say which node refused it, with what code and text.
dist-drill:
	go test -race -count=1 \
	  -run 'TestWholeRequestRefusalNamedWhenPlacementsRunOut|TestWireDropsNoField|TestWireRefusesMalformedBodies|TestDecodeBatchRequestOwnsItsStrings|TestDecodeBatchResultOwnsItsStrings|TestEncodeBatchResultNonFinite|TestNonFiniteAnswerIsInternal|TestDifferentialParallelWorkers|TestKillOneNodeByteIdentical|TestKillAllNodesDegradesToBestSoFar|TestNodeFlapsDuringHedgeByteIdentical|TestDifferentialBatchedDispatch|TestJoinDuringHedgeByteIdentical|TestDrainDuringBatchByteIdentical|TestReRegisterAfterFlapByteIdentical|TestMTLSFailClosed|TestBearerTokenFailClosed|TestBatchedDeadFleetFailsFast|TestHarnessContract|TestProbePairEveryRunner|TestRejectedTrialMeasurementsAgree|TestPlacementsAppendNothingToFleetJournal|TestAttachFleetReplaysOlderJournal|TestCheckpointBytesFleetEquivalence|TestMembershipGrantsAskedLease|TestJoinerRefusesIntervalPastLeaseLimit|TestCLIEvaldRefusesLongJoinInterval|TestRunBatchMatchesRun|TestMeasureIsBatchOfOne|TestWaveStartsOneGoroutinePerRequestPastTheFirst|TestChaosFleetKeepsTelemetryAndBatching|TestChaosPlacementExhaustionRetriedOnce|TestCLIDistDrill' \
	  ./internal/dispatch ./internal/evald ./internal/runner ./hotspot .

# The transfer drills: the cross-workload knowledge base's survival and
# equivalence story. A warm-started session at half the cold trial budget
# must reach the cold best; a store torn mid-record (a kill during an
# append) must salvage its intact prefix and keep warm-starting; and a
# warm-started session must be byte-identical in-process and against a
# real evald fleet. A v1 store checked in by the last build that wrote v1
# must migrate to v2 and warm-start the golden session byte for byte, and
# concurrent sessions sharing one store must never lose or renumber a
# winner. The store and a journal written by the last build that framed
# each itself must match this build's byte for byte, as must a checkpoint
# with the records of its time (JSON then, binary now) — the store's
# binary codec, which checkpoints share, must drop no field — and a
# winner stored with explicit defaults must warm-start exactly like its
# canonical form, and an open that fails on the store's header must still
# count the stale temps it swept. The store's binary group key must group
# exactly as Fingerprint.Key does, Key's bytes must stay those older
# builds wrote into warm checkpoints, the top-k nearest-neighbour
# selection must answer as sorting every group did, and compaction must
# keep argument lists apart that print alike. A reopen of the resident
# store must equal a cold open of the same bytes however the file changed
# since its last Close (the differential test and the FuzzStoreReopen
# seeds), and an open must count the entries it decoded apart from those
# it kept. See docs/TRANSFER.md.
transfer-drill:
	go test -race -count=1 \
	  -run 'TestStoreResidentReopenMatchesCold|TestStoreOpenCountsReplayedAndReused|FuzzStoreReopen|TestTransferWarmStartHalvesTrialBudget|TestTransferOffLeavesSessionByteIdentical|TestTransferBogusStoreDegradesToCold|TestTransferV1StoreMigrationDrill|TestTransferStoreClosedOnEveryPath|TestTransferPriorsCanonical|TestStoreSalvagesTornTail|TestStoreMigratesV1|TestStoreSharedHandles|TestStoreFixture|TestKeeperFixture|TestJournalFixture|TestCodecsDropNoField|TestStoreHeaderFailureCountsSweptTemps|TestTuneTransferJob|TestCLITransferStoreTornTailDrill|TestCLITransferFleetEquivalence|FuzzGroupKey|TestFingerprintKeyGolden|TestNearestMatchesSortTruncate|TestStoreCompactKeepsDistinctArgLists' \
	  ./hotspot ./internal/transfer ./internal/checkpoint ./internal/httpapi .
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

# Record the next BENCH_<n>.json trajectory point, with the host it ran on.
# bench-check reruns the suite five times and fails when a metric's median
# is more than 10% worse than the latest recorded point. It compares
# builds, not machines: a latest point recorded on another host, or on no
# recorded host (BENCH_1..5), fails the check naming both hosts until
# `make bench` records one on this host.
bench:
	./scripts/bench.sh

bench-check:
	./scripts/bench.sh -check
