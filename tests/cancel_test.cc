/**
 * @file
 * Tests of graceful cancellation, deadlines and crash-safe
 * persistence: the Status taxonomy, cooperative scopes, signal
 * handling, the atomic write/recover helpers, checkpoints truncated
 * at every byte offset, and byte-identical campaign resume after a
 * mid-flight interruption.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/taskgraph.hh"
#include "gemstone/campaign.hh"
#include "gemstone/runner.hh"
#include "hwsim/faults.hh"
#include "util/atomicfile.hh"
#include "util/cancellation.hh"
#include "util/csv.hh"
#include "util/logging.hh"
#include "util/signals.hh"
#include "util/status.hh"

using namespace gemstone;
using namespace gemstone::core;

namespace {

constexpr double kFreq = 1000.0;

/** Unique scratch path, removed (with sidecars) on destruction. */
struct ScratchFile
{
    std::string path;
    explicit ScratchFile(const std::string &name)
        : path((std::filesystem::temp_directory_path() /
                name).string())
    {
        cleanup();
    }
    ~ScratchFile() { cleanup(); }
    void
    cleanup() const
    {
        std::filesystem::remove(path);
        std::filesystem::remove(path + ".corrupt");
        std::filesystem::remove(path + ".tmp");
    }
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeFileRaw(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
}

ExperimentRunner
makeFaultedRunner()
{
    ExperimentRunner runner{RunnerConfig{}};
    runner.platform().injectFaults(hwsim::FaultConfig::labMix());
    return runner;
}

} // namespace

// ---------------------------------------------------------------------
// Status taxonomy
// ---------------------------------------------------------------------

TEST(StatusTaxonomy, TagsRoundTrip)
{
    for (StatusCode code :
         {StatusCode::Ok, StatusCode::Cancelled,
          StatusCode::DeadlineExceeded, StatusCode::IoError,
          StatusCode::CorruptData, StatusCode::FaultInjected,
          StatusCode::Internal}) {
        StatusCode parsed = StatusCode::Internal;
        ASSERT_TRUE(parseStatusCode(statusCodeTag(code), parsed))
            << statusCodeTag(code);
        EXPECT_EQ(parsed, code);
    }
    StatusCode ignored;
    EXPECT_FALSE(parseStatusCode("segfault", ignored));
}

TEST(StatusTaxonomy, StatusCarriesCodeAndMessage)
{
    EXPECT_TRUE(Status().ok());
    EXPECT_TRUE(Status::okStatus().ok());

    Status failed = Status::error(StatusCode::IoError, "rename lost");
    EXPECT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), StatusCode::IoError);
    EXPECT_NE(failed.toString().find("io_error"), std::string::npos);
    EXPECT_NE(failed.toString().find("rename lost"),
              std::string::npos);
}

TEST(StatusTaxonomy, StatusErrorUnwindsWithItsCode)
{
    try {
        throw DeadlineError("run overran");
    } catch (const StatusError &e) {
        EXPECT_EQ(e.code(), StatusCode::DeadlineExceeded);
        EXPECT_NE(std::string(e.what()).find("deadline_exceeded"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------
// Cancellation primitives
// ---------------------------------------------------------------------

TEST(Cancellation, TokenCopiesShareOneFlag)
{
    CancellationToken token;
    CancellationToken copy = token;
    EXPECT_FALSE(token.cancelled());
    EXPECT_NO_THROW(copy.throwIfCancelled());

    copy.requestCancel();
    EXPECT_TRUE(token.cancelled());
    EXPECT_THROW(token.throwIfCancelled(), CancelledError);

    // A fresh token is a fresh flag.
    EXPECT_FALSE(CancellationToken().cancelled());
}

TEST(Cancellation, DeadlineExpiry)
{
    EXPECT_FALSE(Deadline().limited());
    EXPECT_FALSE(Deadline().expired());
    EXPECT_NO_THROW(Deadline().throwIfExpired());

    Deadline immediate = Deadline::after(0.0);
    EXPECT_TRUE(immediate.limited());
    EXPECT_TRUE(immediate.expired());
    EXPECT_THROW(immediate.throwIfExpired(), DeadlineError);
    EXPECT_TRUE(Deadline::after(-5.0).expired());

    EXPECT_FALSE(Deadline::after(3600.0).expired());
}

TEST(Cancellation, CoopScopePollsTheWholeChain)
{
    // No scope: a checkpoint is a no-op.
    EXPECT_FALSE(coopScopeActive());
    EXPECT_NO_THROW(coopCheckpoint());

    CancellationToken outer_token;
    {
        CoopScope outer(outer_token, Deadline(), "outer");
        EXPECT_TRUE(coopScopeActive());
        EXPECT_NO_THROW(coopCheckpoint());

        // An inner inert scope must not mask the outer armed one.
        outer_token.requestCancel();
        CoopScope inner(CancellationToken(), Deadline(), "inner");
        EXPECT_THROW(coopCheckpoint(), CancelledError);
    }
    EXPECT_FALSE(coopScopeActive());
    EXPECT_NO_THROW(coopCheckpoint());

    {
        CoopScope timed(CancellationToken(), Deadline::after(0.0),
                        "timed");
        EXPECT_THROW(coopCheckpoint(), DeadlineError);
    }
}

TEST(Cancellation, SignalHandlerCancelsTheToken)
{
    EXPECT_EQ(kExitCancelled, 130);
    EXPECT_EQ(kExitDeadline, 124);

    CancellationToken token;
    installSignalCancellation(token);
    EXPECT_FALSE(token.cancelled());

    // One signal requests graceful cancellation. (A second would
    // _exit the process, so this test raises exactly once.)
    ASSERT_EQ(std::raise(SIGTERM), 0);
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(cancellationSignalCount(), 1u);
}

TEST(Cancellation, FatalHandlerThrowsUnderTest)
{
    setFatalThrows(true);
    EXPECT_THROW(fatal("synthetic fatal"), FatalError);
    try {
        fatal("synthetic fatal message");
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("synthetic fatal"),
                  std::string::npos);
    }
    setFatalThrows(false);
}

// ---------------------------------------------------------------------
// Crash-safe persistence
// ---------------------------------------------------------------------

TEST(AtomicFile, WritesContentAndMarker)
{
    ScratchFile file("gs_atomicfile_test.txt");

    ASSERT_TRUE(atomicWriteFile(file.path, "alpha\nbeta\n").ok());
    EXPECT_EQ(readFile(file.path), "alpha\nbeta\n");
    EXPECT_FALSE(std::filesystem::exists(file.path + ".tmp"));

    // Overwrite with a marker; the marker becomes the last line.
    ASSERT_TRUE(atomicWriteFile(file.path, "gamma\n",
                                kCsvIntegrityMarker).ok());
    EXPECT_EQ(readFile(file.path),
              std::string("gamma\n") + kCsvIntegrityMarker + "\n");
}

TEST(AtomicFile, ReportsIoErrorsAsStatus)
{
    Status status = atomicWriteFile(
        "/nonexistent-dir-gemstone/impossible.txt", "x");
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::IoError);
}

TEST(AtomicFile, RecoverCsvTailQuarantinesPartialRecord)
{
    ScratchFile file("gs_recover_tail_test.csv");

    // A missing file recovers to nothing.
    Result<TailRecovery> missing = recoverCsvTail(file.path);
    ASSERT_TRUE(missing.ok());
    EXPECT_FALSE(missing.value().recovered);

    const std::string good = "a,b\n1,2\n3,4\n";
    writeFileRaw(file.path, good + "5,\"torn in ha");
    Result<TailRecovery> torn = recoverCsvTail(file.path);
    ASSERT_TRUE(torn.ok());
    EXPECT_TRUE(torn.value().recovered);
    EXPECT_EQ(torn.value().quarantinedBytes,
              std::string("5,\"torn in ha").size());
    EXPECT_EQ(readFile(file.path), good);
    // The sidecar holds the quarantined bytes, newline-terminated
    // (it is an append-mode log across recoveries).
    EXPECT_EQ(readFile(torn.value().corruptPath), "5,\"torn in ha\n");

    // Idempotent: the recovered file has nothing left to quarantine.
    Result<TailRecovery> again = recoverCsvTail(file.path);
    ASSERT_TRUE(again.ok());
    EXPECT_FALSE(again.value().recovered);
    EXPECT_EQ(readFile(file.path), good);
}

TEST(AtomicFile, TruncationAtEveryByteOffsetIsRecoverable)
{
    ScratchFile file("gs_truncate_every_offset_test.csv");

    // Quoted commas and a quoted embedded newline: the recovery scan
    // must not mistake either for a record boundary.
    const std::string document =
        "workload,note,value\n"
        "mi-crc32,\"plain\",1.25\n"
        "mi-dijkstra,\"commas, inside\",2.5\n"
        "mi-sha,\"line\nbreak\",3.75\n"
        "mi-fft,last,4\n";

    CsvReader original = [&] {
        writeFileRaw(file.path, document);
        return CsvReader::parseFile(file.path);
    }();
    ASSERT_TRUE(original.ok());
    ASSERT_EQ(original.rowCount(), 4u);

    for (std::size_t cut = 0; cut <= document.size(); ++cut) {
        writeFileRaw(file.path, document.substr(0, cut));
        std::filesystem::remove(file.path + ".corrupt");

        Result<TailRecovery> recovery = recoverCsvTail(file.path);
        ASSERT_TRUE(recovery.ok()) << "cut at byte " << cut;

        // Whatever survives must parse cleanly and be an exact row
        // prefix of the uncut document.
        std::string survivor = readFile(file.path);
        if (survivor.empty())
            continue;
        CsvReader reader = CsvReader::parseFile(file.path);
        ASSERT_TRUE(reader.ok())
            << "cut at byte " << cut << ": "
            << (reader.errors().empty()
                    ? std::string("?")
                    : reader.errors()[0].message);
        ASSERT_LE(reader.rowCount(), original.rowCount());
        for (std::size_t i = 0; i < reader.rowCount(); ++i)
            EXPECT_EQ(reader.row(i), original.row(i))
                << "cut at byte " << cut << ", row " << i;

        // Nothing silently dropped: the quarantined bytes plus the
        // surviving bytes reassemble the truncated input (modulo the
        // sidecar's newline terminator).
        if (recovery.value().recovered) {
            std::string tail = document.substr(survivor.size(), cut -
                                               survivor.size());
            std::string expected = tail;
            if (expected.empty() || expected.back() != '\n')
                expected += '\n';
            EXPECT_EQ(readFile(recovery.value().corruptPath),
                      expected)
                << "cut at byte " << cut;
        }
    }
}

TEST(AtomicFile, CsvReaderToleratesTruncatedFinalRow)
{
    // Under header arity at EOF: a torn append, not a dead document.
    std::istringstream torn("a,b\n1,2\n3");
    CsvReader reader = CsvReader::parse(torn);
    EXPECT_TRUE(reader.ok());
    EXPECT_TRUE(reader.hasTruncatedTail());
    EXPECT_FALSE(reader.sawIntegrityMarker());
    ASSERT_EQ(reader.rowCount(), 1u);
    EXPECT_EQ(reader.cell(0, "a"), "1");

    // The same arity problem on an interior row is still an error.
    std::istringstream interior("a,b\n3\n1,2\n");
    EXPECT_FALSE(CsvReader::parse(interior).ok());

    // A complete document carrying the marker reports it.
    std::istringstream marked(std::string("a,b\n1,2\n") +
                              kCsvIntegrityMarker + "\n");
    CsvReader complete = CsvReader::parse(marked);
    EXPECT_TRUE(complete.ok());
    EXPECT_TRUE(complete.sawIntegrityMarker());
    EXPECT_FALSE(complete.hasTruncatedTail());
    EXPECT_EQ(complete.rowCount(), 1u);
}

// ---------------------------------------------------------------------
// Campaign cancellation, deadlines and resume
// ---------------------------------------------------------------------

TEST(CancelCampaign, AbandonedNodesAreCancelledNotSucceeded)
{
    // A node reached after the token trips is abandoned without
    // running. It must not report success: the campaign gather
    // relies on succeeded() to decide whether a point's checkpoint
    // row was actually written.
    CancellationToken token;
    exec::TaskGraph graph;
    bool ran_second = false;
    exec::TaskGraph::NodeId first = graph.add(
        "first", [&token] { token.requestCancel(); });
    exec::TaskGraph::NodeId second = graph.add(
        "second", [&ran_second] { ran_second = true; }, {first});
    EXPECT_THROW(graph.runSerial(token), CancelledError);
    EXPECT_FALSE(ran_second);
    EXPECT_TRUE(graph.succeeded(first));
    EXPECT_FALSE(graph.succeeded(second));
    EXPECT_TRUE(graph.cancelled(second));
    EXPECT_FALSE(graph.skipped(second));
}

TEST(CancelCampaign, PreCancelledTokenAbandonsEveryPoint)
{
    ScratchFile checkpoint("gs_cancel_precancelled_test.csv");

    CampaignConfig policy;
    policy.checkpointPath = checkpoint.path;
    policy.cancel.requestCancel();

    ExperimentRunner runner{RunnerConfig{}};
    CampaignResult result =
        CampaignEngine(runner, policy)
            .runValidation(hwsim::CpuCluster::BigA15, {kFreq});

    EXPECT_TRUE(result.cancelled);
    EXPECT_FALSE(result.complete);
    EXPECT_EQ(result.measuredPoints, 0u);
    EXPECT_EQ(result.cancelledPoints, result.points.size());
    EXPECT_TRUE(result.dataset.records.empty());
    for (const CampaignPoint &point : result.points) {
        EXPECT_EQ(point.status, PointStatus::Cancelled);
        EXPECT_EQ(point.lastError, StatusCode::Cancelled);
    }
}

TEST(CancelCampaign, InterruptedCampaignResumesByteIdentical)
{
    // The reference: one uninterrupted faulted campaign.
    CampaignConfig reference_policy;
    ExperimentRunner reference_runner = makeFaultedRunner();
    const std::string reference_csv =
        CampaignEngine(reference_runner, reference_policy)
            .runValidation(hwsim::CpuCluster::BigA15, {kFreq})
            .dataset.toCsv();

    // Interrupt mid-flight via the token (the SIGTERM path), then
    // resume from the checkpoint: the collated dataset must be
    // byte-identical wherever the interrupt landed, serial and
    // threaded alike.
    for (unsigned jobs : {1u, 4u}) {
        ScratchFile checkpoint("gs_cancel_resume_test.csv");
        CampaignConfig policy;
        policy.checkpointPath = checkpoint.path;
        policy.jobs = jobs;

        CampaignConfig interrupted = policy;
        CancellationToken token;
        interrupted.cancel = token;
        std::thread watchdog([token]() mutable {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
            token.requestCancel();
        });
        ExperimentRunner first = makeFaultedRunner();
        CampaignResult partial =
            CampaignEngine(first, interrupted)
                .runValidation(hwsim::CpuCluster::BigA15, {kFreq});
        watchdog.join();

        if (partial.cancelledPoints > 0) {
            EXPECT_TRUE(partial.cancelled) << "jobs " << jobs;
            EXPECT_FALSE(partial.complete) << "jobs " << jobs;
        }

        ExperimentRunner second = makeFaultedRunner();
        CampaignResult resumed =
            CampaignEngine(second, policy)
                .runValidation(hwsim::CpuCluster::BigA15, {kFreq});

        EXPECT_TRUE(resumed.complete) << "jobs " << jobs;
        EXPECT_EQ(resumed.resumedPoints,
                  partial.measuredPoints + partial.resumedPoints)
            << "jobs " << jobs;
        EXPECT_EQ(resumed.dataset.toCsv(), reference_csv)
            << "jobs " << jobs;
    }
}

TEST(CancelCampaign, ResumeAfterKSettledPointsAtEveryTornOffset)
{
    // One runner serves every campaign below: fault plans are pure
    // functions of (point, attempt) and base runs are memoised, so
    // sharing it moves no output byte, only the time.
    ExperimentRunner runner = makeFaultedRunner();
    constexpr std::size_t kPoints = 4;
    CampaignConfig plain;
    plain.maxPoints = kPoints;
    const std::string reference_csv =
        CampaignEngine(runner, plain)
            .runValidation(hwsim::CpuCluster::BigA15, {kFreq})
            .dataset.toCsv();

    for (unsigned jobs : {1u, 4u}) {
        for (std::size_t k : {std::size_t{1}, kPoints / 2, kPoints - 1}) {
            const std::string where = "jobs " + std::to_string(jobs) +
                                      " k " + std::to_string(k);
            ScratchFile checkpoint("gs_cancel_k_resume_test.csv");
            CampaignConfig policy = plain;
            policy.jobs = jobs;
            policy.checkpointPath = checkpoint.path;

            // Cancel from the sink once k points have settled (and
            // been appended): a deterministic cut, never an empty
            // checkpoint. At jobs 4 points already in flight may
            // still settle after it.
            CampaignConfig interrupted = policy;
            CancellationToken token;
            interrupted.cancel = token;
            std::atomic<std::size_t> settled{0};
            interrupted.pointSink = [&](const CampaignPoint &,
                                        std::size_t, std::size_t) {
                if (settled.fetch_add(1) + 1 == k)
                    token.requestCancel();
            };
            CampaignResult partial =
                CampaignEngine(runner, interrupted)
                    .runValidation(hwsim::CpuCluster::BigA15, {kFreq});
            ASSERT_GE(partial.measuredPoints, k) << where;
            if (jobs == 1) {
                EXPECT_EQ(partial.measuredPoints, k) << where;
                EXPECT_TRUE(partial.cancelled) << where;
            }

            // Tear the appended checkpoint at every byte offset of
            // its last row; each resume must still collate the
            // uninterrupted dataset byte for byte.
            const std::string appended = readFile(checkpoint.path);
            ASSERT_GE(appended.size(), 2u) << where;
            ASSERT_EQ(appended.back(), '\n') << where;
            const std::size_t last_row =
                appended.rfind('\n', appended.size() - 2) + 1;
            for (std::size_t cut = last_row; cut <= appended.size();
                 ++cut) {
                writeFileRaw(checkpoint.path, appended.substr(0, cut));
                std::filesystem::remove(checkpoint.path + ".corrupt");
                CampaignResult resumed =
                    CampaignEngine(runner, policy)
                        .runValidation(hwsim::CpuCluster::BigA15,
                                       {kFreq});
                const std::size_t torn = cut < appended.size() ? 1 : 0;
                EXPECT_EQ(resumed.resumedPoints,
                          partial.measuredPoints - torn)
                    << where << " cut " << cut;
                ASSERT_EQ(resumed.dataset.toCsv(), reference_csv)
                    << where << " cut " << cut;
            }
        }
    }
}

TEST(CancelCampaign, CheckpointTruncatedAtArbitraryOffsetsResumes)
{
    ScratchFile checkpoint("gs_cancel_truncate_resume_test.csv");

    // The reference collated dataset, uninterrupted and faulted.
    CampaignConfig plain;
    ExperimentRunner reference_runner = makeFaultedRunner();
    const std::string reference_csv =
        CampaignEngine(reference_runner, plain)
            .runValidation(hwsim::CpuCluster::BigA15, {kFreq})
            .dataset.toCsv();

    // A partial campaign leaves a real checkpoint to mutilate.
    CampaignConfig partial;
    partial.checkpointPath = checkpoint.path;
    partial.maxPoints = 8;
    ExperimentRunner first = makeFaultedRunner();
    CampaignResult before =
        CampaignEngine(first, partial)
            .runValidation(hwsim::CpuCluster::BigA15, {kFreq});
    ASSERT_FALSE(before.complete);
    const std::string intact = readFile(checkpoint.path);
    ASSERT_FALSE(intact.empty());

    // Truncate the checkpoint at offsets spanning the whole file —
    // inside the header, on and off row boundaries, inside the
    // integrity marker — and resume each time: every resume must
    // quarantine the damage and still collate the reference dataset
    // byte for byte.
    std::vector<std::size_t> cuts = {0, 1, intact.size() / 4,
                                     intact.size() / 2,
                                     (3 * intact.size()) / 4,
                                     intact.size() - 2,
                                     intact.size()};
    for (std::size_t cut : cuts) {
        writeFileRaw(checkpoint.path, intact.substr(0, cut));
        std::filesystem::remove(checkpoint.path + ".corrupt");

        CampaignConfig policy;
        policy.checkpointPath = checkpoint.path;
        ExperimentRunner runner = makeFaultedRunner();
        CampaignResult resumed =
            CampaignEngine(runner, policy)
                .runValidation(hwsim::CpuCluster::BigA15, {kFreq});

        EXPECT_TRUE(resumed.complete) << "cut at byte " << cut;
        EXPECT_LE(resumed.resumedPoints, before.points.size())
            << "cut at byte " << cut;
        EXPECT_EQ(resumed.dataset.toCsv(), reference_csv)
            << "cut at byte " << cut;
    }
}

TEST(CancelCampaign, AttemptDeadlineFeedsRetryMachinery)
{
    CampaignConfig policy;
    policy.quorum = 1;
    policy.maxAttempts = 2;
    policy.attemptDeadlineSeconds = 1e-9;  // expires at the first poll

    ExperimentRunner runner{RunnerConfig{}};
    CampaignResult result =
        CampaignEngine(runner, policy)
            .runValidation(hwsim::CpuCluster::BigA15, {kFreq});

    // Every attempt overruns: the deadline is absorbed like a run
    // fault — attempts burned, backoff ledgered, points excluded —
    // and attributed as deadline_exceeded, not fault_injected.
    EXPECT_TRUE(result.complete);
    EXPECT_FALSE(result.cancelled);
    EXPECT_TRUE(result.dataset.records.empty());
    ASSERT_EQ(result.points.size(), 45u);
    EXPECT_EQ(result.totalAttempts, 45u * policy.maxAttempts);
    EXPECT_EQ(result.totalDeadlineFailures, result.totalFailures);
    EXPECT_GT(result.backoffSeconds, 0.0);
    for (const CampaignPoint &point : result.points) {
        EXPECT_EQ(point.status, PointStatus::Failed);
        EXPECT_EQ(point.lastError, StatusCode::DeadlineExceeded);
        EXPECT_EQ(point.deadlineFailures, policy.maxAttempts);
    }
}

TEST(CancelCampaign, RunnerDeadlineUnwindsValidation)
{
    RunnerConfig config;
    config.runDeadlineSeconds = 1e-9;
    ExperimentRunner runner(config);
    EXPECT_THROW(
        runner.runValidation(hwsim::CpuCluster::BigA15, {kFreq}),
        DeadlineError);

    RunnerConfig cancelled_config;
    cancelled_config.cancel.requestCancel();
    ExperimentRunner cancelled_runner(cancelled_config);
    EXPECT_THROW(cancelled_runner.runValidation(
                     hwsim::CpuCluster::BigA15, {kFreq}),
                 CancelledError);
}
