/**
 * @file
 * Tests of the execution engine: thread pool scheduling and
 * shutdown, task-graph ordering and failure semantics, and the
 * content-addressed result store.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/resultstore.hh"
#include "exec/sharedtier.hh"
#include "exec/taskgraph.hh"
#include "exec/threadpool.hh"

using namespace gemstone;
using namespace gemstone::exec;

namespace {

/** Unique scratch path, removed on destruction. */
struct ScratchFile
{
    std::string path;
    explicit ScratchFile(const std::string &name)
        : path((std::filesystem::temp_directory_path() /
                name).string())
    {
        std::filesystem::remove(path);
    }
    ~ScratchFile() { std::filesystem::remove(path); }
};

/** A store record with interned names, from (name, value) pairs. */
ResultStore::Record
record(std::initializer_list<std::pair<const char *, double>> fields)
{
    ResultStore::FieldNames names;
    ResultStore::Record out;
    for (const auto &[name, value] : fields) {
        names.emplace_back(name);
        out.values.push_back(value);
    }
    out.names = ResultStore::intern(std::move(names));
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------

TEST(ThreadPool, RunsEveryPostedTask)
{
    constexpr int kTasks = 10000;
    std::atomic<int> done{0};
    {
        ThreadPool pool(4, /*queue_capacity=*/64);
        for (int i = 0; i < kTasks; ++i)
            pool.post([&done] { ++done; });
        // Destructor drains the queue before joining.
    }
    EXPECT_EQ(done.load(), kTasks);
}

TEST(ThreadPool, DrainWaitsForAllQueuedWork)
{
    std::atomic<int> done{0};
    ThreadPool pool(3);
    for (int i = 0; i < 1000; ++i)
        pool.post([&done] { ++done; });
    pool.drain();
    EXPECT_EQ(done.load(), 1000);
}

TEST(ThreadPool, SubmitReturnsResultsThroughFutures)
{
    ThreadPool pool(4);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 100; ++i)
        futures.push_back(pool.submit([i] { return i * i; }));
    int sum = 0;
    for (auto &future : futures)
        sum += future.get();
    // Sum of squares 0..99.
    EXPECT_EQ(sum, 99 * 100 * 199 / 6);
}

TEST(ThreadPool, SubmitPropagatesExceptions)
{
    ThreadPool pool(2);
    auto future = pool.submit([]() -> int {
        throw std::runtime_error("task failed");
    });
    EXPECT_THROW(future.get(), std::runtime_error);
    // The pool survives a throwing task.
    EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, RecursiveSubmissionFromWorkersDoesNotDeadlock)
{
    // Tasks spawned from workers bypass the bounded injection queue,
    // so a tiny capacity cannot deadlock recursive fan-out.
    std::atomic<int> done{0};
    {
        ThreadPool pool(2, /*queue_capacity=*/2);
        for (int i = 0; i < 8; ++i) {
            pool.post([&pool, &done] {
                for (int j = 0; j < 50; ++j)
                    pool.post([&done] { ++done; });
                ++done;
            });
        }
    }
    EXPECT_EQ(done.load(), 8 * 51);
}

TEST(ThreadPool, SingleThreadPoolStillCompletes)
{
    std::atomic<int> done{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 500; ++i)
            pool.post([&done] { ++done; });
    }
    EXPECT_EQ(done.load(), 500);
    EXPECT_GE(ThreadPool::defaultThreadCount(), 1u);
}

// ---------------------------------------------------------------------
// TaskGraph
// ---------------------------------------------------------------------

TEST(TaskGraph, SerialExecutionPicksLowestReadyId)
{
    TaskGraph graph;
    std::vector<int> order;
    auto note = [&order](int id) { return [&order, id] {
        order.push_back(id);
    }; };
    // Diamond: 0 -> {1, 2} -> 3, plus an independent 4.
    auto a = graph.add("a", note(0));
    auto b = graph.add("b", note(1), {a});
    auto c = graph.add("c", note(2), {a});
    graph.add("d", note(3), {b, c});
    graph.add("e", note(4));

    graph.runSerial();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(TaskGraph, ParallelRunRespectsDependencies)
{
    TaskGraph graph;
    std::atomic<bool> first_done{false};
    std::atomic<bool> order_ok{false};
    auto first = graph.add("first", [&] { first_done = true; });
    graph.add("second", [&] { order_ok = first_done.load(); },
              {first});

    ThreadPool pool(4);
    graph.run(pool);
    EXPECT_TRUE(order_ok.load());
}

TEST(TaskGraph, ManyIndependentNodesAllRun)
{
    TaskGraph graph;
    std::atomic<int> done{0};
    for (int i = 0; i < 2000; ++i)
        graph.add("n", [&done] { ++done; });
    ThreadPool pool(4);
    graph.run(pool);
    EXPECT_EQ(done.load(), 2000);
    for (TaskGraph::NodeId id = 0; id < 2000; ++id)
        EXPECT_TRUE(graph.succeeded(id));
}

TEST(TaskGraph, CycleIsDetectedBeforeAnythingRuns)
{
    TaskGraph graph;
    std::atomic<int> ran{0};
    auto a = graph.add("a", [&ran] { ++ran; });
    auto b = graph.add("b", [&ran] { ++ran; }, {a});
    graph.addEdge(b, a);  // back edge closes the cycle

    EXPECT_TRUE(graph.hasCycle());
    EXPECT_THROW(graph.runSerial(), std::logic_error);
    EXPECT_EQ(ran.load(), 0);

    ThreadPool pool(2);
    EXPECT_THROW(graph.run(pool), std::logic_error);
    EXPECT_EQ(ran.load(), 0);
}

TEST(TaskGraph, FailedNodeSkipsDependentsAndRethrows)
{
    TaskGraph graph;
    std::atomic<int> ran{0};
    auto bad = graph.add("bad", [] {
        throw std::runtime_error("node failed");
    });
    auto child = graph.add("child", [&ran] { ++ran; }, {bad});
    auto grandchild =
        graph.add("grandchild", [&ran] { ++ran; }, {child});
    auto bystander = graph.add("bystander", [&ran] { ++ran; });

    EXPECT_THROW(graph.runSerial(), std::runtime_error);
    EXPECT_EQ(ran.load(), 1);  // only the bystander
    EXPECT_FALSE(graph.succeeded(bad));
    EXPECT_TRUE(graph.skipped(child));
    EXPECT_TRUE(graph.skipped(grandchild));
    EXPECT_TRUE(graph.succeeded(bystander));
}

TEST(TaskGraph, LowestIdErrorWinsAtAnyThreadCount)
{
    // Two failing nodes: the reported exception must come from the
    // lower id, serial or parallel.
    for (unsigned threads : {0u, 2u, 4u}) {
        TaskGraph graph;
        graph.add("early", [] {
            throw std::runtime_error("early");
        });
        graph.add("late", [] {
            throw std::logic_error("late");
        });
        try {
            if (threads == 0) {
                graph.runSerial();
            } else {
                ThreadPool pool(threads);
                graph.run(pool);
            }
            FAIL() << "expected a rethrown node error";
        } catch (const std::runtime_error &error) {
            EXPECT_STREQ(error.what(), "early");
        } catch (const std::logic_error &) {
            FAIL() << "higher-id error reported";
        }
    }
}

// ---------------------------------------------------------------------
// ResultStore
// ---------------------------------------------------------------------

TEST(ResultStore, Fnv1aMatchesReferenceVectors)
{
    // Published FNV-1a 64-bit test vectors.
    EXPECT_EQ(ResultStore::fnv1a(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(ResultStore::fnv1a("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(ResultStore::fnv1a("foobar"), 0x85944171f73967e8ULL);
}

TEST(ResultStore, HitAfterInsertMissBefore)
{
    ResultStore store(8);
    ResultStore::Record out;
    EXPECT_FALSE(store.lookup("k1", out));
    store.insert("k1", record({{"x", 1.5}, {"y", -2.0}}));
    ASSERT_TRUE(store.lookup("k1", out));
    ASSERT_EQ(out.values.size(), 2u);
    EXPECT_EQ((*out.names)[0], "x");
    EXPECT_DOUBLE_EQ(out.values[0], 1.5);
    EXPECT_EQ((*out.names)[1], "y");

    ResultStore::Stats stats = store.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.insertions, 1u);
}

TEST(ResultStore, LruEvictionDropsColdestEntry)
{
    ResultStore store(2);
    store.insert("a", record({{"v", 1.0}}));
    store.insert("b", record({{"v", 2.0}}));
    // Touch "a" so "b" is the LRU victim.
    ResultStore::Record out;
    ASSERT_TRUE(store.lookup("a", out));
    store.insert("c", record({{"v", 3.0}}));

    EXPECT_EQ(store.size(), 2u);
    EXPECT_TRUE(store.lookup("a", out));
    EXPECT_FALSE(store.lookup("b", out));
    EXPECT_TRUE(store.lookup("c", out));
    EXPECT_EQ(store.stats().evictions, 1u);
}

TEST(ResultStore, CsvPersistenceRoundTripsBitExactly)
{
    ScratchFile file("gs_resultstore_roundtrip_test.csv");

    // Values chosen to break any lossy formatting: non-terminating
    // binary fractions, denormal-adjacent magnitudes, negatives.
    ResultStore::Record fields = record({{"third", 1.0 / 3.0},
                                         {"tiny", 1.2345678912345e-301},
                                         {"huge", 9.87654321e300},
                                         {"neg", -0.1}});
    ResultStore store(16);
    ASSERT_TRUE(store.attachSharedTier(file.path).ok());
    store.insert("point|a", fields);
    store.insert("point|b", record({{"v", 2.0000000000000004}}));

    // Published as inserted: a second store reads both entries back
    // with no save step in between.
    ResultStore restored(16);
    ASSERT_TRUE(restored.attachSharedTier(file.path).ok());
    EXPECT_EQ(restored.size(), 2u);
    EXPECT_EQ(restored.sharedTier()->stats().absorbed, 2u);
    ResultStore::Record out;
    ASSERT_TRUE(restored.lookup("point|a", out));
    ASSERT_EQ(out.values.size(), fields.values.size());
    for (std::size_t i = 0; i < fields.values.size(); ++i) {
        EXPECT_EQ((*out.names)[i], (*fields.names)[i]);
        // Bit-exact, not approximately equal.
        EXPECT_EQ(out.values[i], fields.values[i]);
    }
    ASSERT_TRUE(restored.lookup("point|b", out));
    EXPECT_EQ(out.values[0], 2.0000000000000004);
}

TEST(ResultStore, MissingFileLoadsNothing)
{
    // A missing file attaches as an empty tier, created on the spot.
    ScratchFile file("gs_resultstore_missing_test.csv");
    ResultStore store(4);
    ASSERT_TRUE(store.attachSharedTier(file.path).ok());
    EXPECT_EQ(store.size(), 0u);
    EXPECT_TRUE(std::filesystem::exists(file.path));

    // One that cannot be created is an error, and loads nothing.
    ResultStore orphan(4);
    EXPECT_FALSE(orphan.attachSharedTier("/nonexistent/gs_store.csv")
                     .ok());
    EXPECT_FALSE(orphan.hasSharedTier());
    EXPECT_EQ(orphan.size(), 0u);
}

TEST(ResultStore, ConcurrentMixedUseIsConsistent)
{
    ResultStore store(4096);
    {
        ThreadPool pool(4);
        for (int t = 0; t < 8; ++t) {
            pool.post([&store, t] {
                ResultStore::Record out;
                for (int i = 0; i < 500; ++i) {
                    std::string key =
                        "k" + std::to_string(i % 64);
                    if (!store.lookup(key, out)) {
                        store.insert(
                            key,
                            record({{"v", static_cast<double>(i % 64)}}));
                    }
                }
                (void)t;
            });
        }
    }
    // Every surviving entry must carry its own key's value.
    ResultStore::Record out;
    for (int i = 0; i < 64; ++i) {
        std::string key = "k" + std::to_string(i);
        ASSERT_TRUE(store.lookup(key, out));
        EXPECT_DOUBLE_EQ(out.values[0], static_cast<double>(i));
    }
}
