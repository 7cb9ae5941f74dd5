/**
 * @file
 * The point graph of Experiments 1-4 (Fig. 1), built in one place for
 * the runner's validation and power loops and the campaign engine.
 *
 * Per point, in plan order: a measured point adds an hw node, then an
 * optional g5 node, then an optional collate node depending on both;
 * a point restored from a checkpoint adds one resume node, no edge.
 * Node ids ascend in plan order, so runSerial() runs the points in
 * canonical order and run() reports the lowest-id error at any
 * thread count. The hw and g5 nodes of each workload's first
 * measured point compute its two 1.0 GHz base runs, and the
 * same-kind nodes of its later points depend on them: they retime
 * filled slots instead of blocking pool threads on the once-flags,
 * which stay the correctness guard (DESIGN.md §10).
 */

#ifndef GEMSTONE_GEMSTONE_POINTGRAPH_HH
#define GEMSTONE_GEMSTONE_POINTGRAPH_HH

#include <functional>
#include <string>
#include <vector>

#include "exec/taskgraph.hh"
#include "util/cancellation.hh"
#include "workload/workload.hh"

namespace gemstone::core {

/** One (workload, frequency) entry of a PointPlan. */
struct PlannedPoint
{
    const workload::Workload *work = nullptr;
    double freqMhz = 0.0;
    bool resumed = false;  //!< restored from a checkpoint
};

/**
 * An experiment's points, workload-major, frequencies in the caller's
 * order, cut after @p max_points entries when it is non-zero. Node
 * bodies write only slots indexed by a point's position here,
 * declared before the graph, so results never depend on completion
 * order.
 */
struct PointPlan
{
    PointPlan(const std::vector<const workload::Workload *> &works,
              const std::vector<double> &freqs_mhz,
              std::size_t max_points = 0)
    {
        for (const workload::Workload *work : works) {
            for (double freq : freqs_mhz) {
                if (max_points != 0 && points.size() >= max_points) {
                    truncated = true;
                    return;
                }
                points.push_back({work, freq});
            }
        }
    }

    std::vector<PlannedPoint> points;
    bool truncated = false;  //!< max_points cut entries off
};

/** Node bodies, each called with its point's plan index. hw is
 *  required; an empty g5 or collate adds no such node. */
struct PointBodies
{
    using Body = std::function<void(std::size_t)>;
    Body hw, g5, collate, resume;
};

/**
 * Add @p plan's nodes to @p graph. Returns, per point, the node that
 * settles it: its resume node, else the last of hw, g5, collate.
 */
inline std::vector<exec::TaskGraph::NodeId>
addPointGraph(exec::TaskGraph &graph, const PointPlan &plan,
              const PointBodies &bodies)
{
    using NodeId = exec::TaskGraph::NodeId;
    auto add = [&](const char *kind, const PointBodies::Body &body,
                   std::size_t i, const std::vector<NodeId> &deps) {
        return graph.add(kind + plan.points[i].work->name,
                         [body, i] { body(i); }, deps);
    };
    std::vector<NodeId> settles(plan.points.size());
    std::vector<NodeId> hw_base, g5_base;
    for (std::size_t i = 0; i < plan.points.size(); ++i) {
        const PlannedPoint &point = plan.points[i];
        if (i > 0 && plan.points[i - 1].work != point.work) {
            hw_base.clear();
            g5_base.clear();
        }
        if (point.resumed) {
            settles[i] = add("resume:", bodies.resume, i, {});
            continue;
        }
        std::vector<NodeId> ids = {add("hw:", bodies.hw, i, hw_base)};
        if (bodies.g5)
            ids.push_back(add("g5:", bodies.g5, i, g5_base));
        if (hw_base.empty()) {
            hw_base = {ids.front()};
            g5_base = {ids.back()};
        }
        settles[i] = bodies.collate
            ? add("collate:", bodies.collate, i, ids)
            : ids.back();
    }
    return settles;
}

/** runSerial() when @p jobs <= 1, else run() on a pool of @p jobs
 *  threads; both honour @p token. */
inline void
runPointGraph(exec::TaskGraph &graph, unsigned jobs,
              const CancellationToken &token)
{
    if (jobs <= 1) {
        graph.runSerial(token);
        return;
    }
    exec::ThreadPool pool(jobs);
    pool.setCancellationToken(token);
    graph.run(pool, token);
}

} // namespace gemstone::core

#endif // GEMSTONE_GEMSTONE_POINTGRAPH_HH
