/**
 * @file
 * Tests of the eqc::Runtime engine API: engine-name error handling,
 * engine parity (the "virtual" replay is bit-identical for every
 * thread count), job queueing/fan-out, and streamed TraceObserver
 * telemetry.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/runtime.h"
#include "device/catalog.h"
#include "vqa/problem.h"

namespace eqc {
namespace {

std::vector<Device>
smallEnsemble()
{
    return {deviceByName("ibmq_bogota"), deviceByName("ibmq_manila"),
            deviceByName("ibmq_quito")};
}

TEST(EngineRegistry, UnknownEngineFailsWithClearMessage)
{
    VqaProblem p = makeHeisenbergVqe();
    Runtime rt;
    EqcOptions opts;
    opts.engine = "warp-drive";
    EXPECT_THROW(rt.submit(p, smallEnsemble(), opts),
                 std::invalid_argument);
    // The message must name the bad engine and list the registered
    // ones, so a typo is a one-glance fix — no crash, no silent
    // fallback to a default engine.
    std::string message;
    try {
        rt.submit(p, smallEnsemble(), opts);
    } catch (const std::invalid_argument &e) {
        message = e.what();
    }
    EXPECT_NE(message.find("warp-drive"), std::string::npos);
    EXPECT_NE(message.find("virtual"), std::string::npos);
    EXPECT_NE(message.find("service"), std::string::npos);
    // And nothing ran: no job is pending in the runtime.
    EXPECT_EQ(rt.pendingJobs(), 0u);
}

TEST(EngineParity, VirtualEngineIsBitDeterministic)
{
    VqaProblem p = makeHeisenbergVqe();
    EqcOptions opts;
    opts.master.epochs = 10;
    opts.seed = 42;
    opts.engine = "virtual";
    Runtime rt;
    EqcTrace a = rt.submit(p, smallEnsemble(), opts).take();
    EqcTrace b = rt.submit(p, smallEnsemble(), opts).take();
    ASSERT_EQ(a.epochs.size(), b.epochs.size());
    for (std::size_t i = 0; i < a.epochs.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.epochs[i].energyDevice,
                         b.epochs[i].energyDevice);
        EXPECT_DOUBLE_EQ(a.epochs[i].energyIdeal,
                         b.epochs[i].energyIdeal);
        EXPECT_DOUBLE_EQ(a.epochs[i].timeH, b.epochs[i].timeH);
    }
    ASSERT_EQ(a.finalParams.size(), b.finalParams.size());
    for (std::size_t i = 0; i < a.finalParams.size(); ++i)
        EXPECT_DOUBLE_EQ(a.finalParams[i], b.finalParams[i]);
    EXPECT_DOUBLE_EQ(a.totalHours, b.totalHours);
}

TEST(EngineParity, VirtualEngineInvariantAcrossFanoutThreads)
{
    // The virtual engine flushes gradient batches through a TaskPool;
    // per-job forked RNG streams and fixed reduction order must make
    // the trace bit-identical for every pool size.
    VqaProblem p = makeHeisenbergVqe();
    EqcTrace ref;
    for (int threads : {1, 2, 4}) {
        EqcOptions opts;
        opts.master.epochs = 8;
        opts.seed = 7;
        opts.engine = "virtual";
        opts.engineThreads = threads;
        Runtime rt;
        EqcTrace t = rt.submit(p, smallEnsemble(), opts).take();
        if (threads == 1) {
            ref = std::move(t);
            ASSERT_EQ(ref.epochs.size(), 8u);
            continue;
        }
        ASSERT_EQ(t.epochs.size(), ref.epochs.size())
            << "threads " << threads;
        for (std::size_t i = 0; i < ref.epochs.size(); ++i) {
            EXPECT_DOUBLE_EQ(t.epochs[i].energyDevice,
                             ref.epochs[i].energyDevice);
            EXPECT_DOUBLE_EQ(t.epochs[i].energyIdeal,
                             ref.epochs[i].energyIdeal);
            EXPECT_DOUBLE_EQ(t.epochs[i].timeH, ref.epochs[i].timeH);
        }
        ASSERT_EQ(t.finalParams.size(), ref.finalParams.size());
        for (std::size_t i = 0; i < ref.finalParams.size(); ++i)
            EXPECT_DOUBLE_EQ(t.finalParams[i], ref.finalParams[i]);
        EXPECT_DOUBLE_EQ(t.totalHours, ref.totalHours);
    }
}

TEST(Runtime, QueuedJobsFanOutAcrossEngines)
{
    VqaProblem p = makeHeisenbergVqe();
    EqcOptions opts;
    opts.master.epochs = 6;
    opts.seed = 3;

    Runtime rt;
    std::vector<JobHandle> jobs;
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        EqcOptions o = opts;
        o.seed = seed;
        jobs.push_back(rt.submit(p, smallEnsemble(), o));
    }
    EXPECT_EQ(rt.pendingJobs(), 3u);
    for (const JobHandle &job : jobs)
        EXPECT_FALSE(job.done());
    rt.runAll();
    EXPECT_EQ(rt.pendingJobs(), 0u);
    for (JobHandle &job : jobs) {
        EXPECT_TRUE(job.done());
        EXPECT_EQ(job.engine(), std::string("virtual"));
        EXPECT_EQ(job.get().epochs.size(), 6u);
    }
    // Handles carry stable submission-order ids.
    EXPECT_EQ(jobs[0].id(), 0);
    EXPECT_EQ(jobs[2].id(), 2);
    // runAll must match the lazy path bit-for-bit (seed 3 == opts).
    EqcTrace lazy = rt.submit(p, smallEnsemble(), opts).take();
    const EqcTrace &pooled = jobs[2].get();
    ASSERT_EQ(lazy.epochs.size(), pooled.epochs.size());
    for (std::size_t i = 0; i < lazy.epochs.size(); ++i)
        EXPECT_DOUBLE_EQ(lazy.epochs[i].energyDevice,
                         pooled.epochs[i].energyDevice);
}

/** Counts streamed telemetry events as the run progresses. */
class CountingObserver : public TraceObserver
{
  public:
    void
    onResult(RunContext &, std::size_t, const GradientResult &,
             double weight) override
    {
        ++results;
        lastWeight = weight;
    }

    void
    onEpoch(RunContext &, EpochRecord &rec) override
    {
        ++epochs;
        lastEpochTimeH = rec.timeH;
    }

    void onFinish(RunContext &) override { ++finishes; }

    int results = 0;
    int epochs = 0;
    int finishes = 0;
    double lastWeight = 0.0;
    double lastEpochTimeH = 0.0;
};

TEST(Runtime, ObserversStreamTelemetry)
{
    VqaProblem p = makeHeisenbergVqe();
    EqcOptions opts;
    opts.master.epochs = 5;
    opts.master.weightBounds = {0.5, 1.5};
    opts.seed = 9;

    CountingObserver counter;
    Runtime rt;
    EqcTrace trace =
        rt.submit(p, smallEnsemble(), opts, {&counter}).take();

    ASSERT_EQ(trace.epochs.size(), 5u);
    EXPECT_EQ(counter.epochs, 5);
    EXPECT_EQ(counter.finishes, 1);
    // One onResult per applied gradient; the built-in weight timeline
    // observer saw exactly the same stream.
    EXPECT_GT(counter.results, 0);
    EXPECT_EQ(static_cast<std::size_t>(counter.results),
              trace.weights.size());
    EXPECT_GE(counter.lastWeight, 0.5 - 1e-12);
    EXPECT_LE(counter.lastWeight, 1.5 + 1e-12);
    EXPECT_DOUBLE_EQ(counter.lastEpochTimeH,
                     trace.epochs.back().timeH);
}

TEST(Runtime, RecordingSwitchesComposeAsObservers)
{
    VqaProblem p = makeHeisenbergVqe();
    EqcOptions opts;
    opts.master.epochs = 4;
    opts.seed = 5;
    opts.recordWeights = false;
    opts.recordIdealEnergy = false;
    Runtime rt;
    EqcTrace trace = rt.submit(p, smallEnsemble(), opts).take();
    EXPECT_TRUE(trace.weights.empty());
    for (const EpochRecord &rec : trace.epochs)
        EXPECT_DOUBLE_EQ(rec.energyIdeal, 0.0);
    // Core telemetry stays on: jobs-per-device is an always-installed
    // observer and staleness is copied from the master at finish —
    // neither is a recording switch.
    EXPECT_EQ(trace.jobsPerDevice.size(), 3u);
    EXPECT_GT(trace.staleness.count(), 0u);
}

} // namespace
} // namespace eqc
