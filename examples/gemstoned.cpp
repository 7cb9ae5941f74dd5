/**
 * @file
 * gemstoned — the long-running campaign service daemon.
 *
 * Listens on a Unix-domain socket (and/or loopback TCP), accepts
 * concurrent campaign requests from gemstonectl clients, runs them on
 * the execution stack and streams incremental results back. All
 * requests share one content-addressed result store, so a repeated
 * request is a cache hit instead of a re-simulation.
 *
 * Usage:
 *   gemstoned --socket PATH [--tcp PORT] [--max-active N]
 *             [--queue-depth N] [--store-capacity N] [--cache PATH]
 *             [--heartbeat SECONDS] [--journal DIR]
 *             [--retain SECONDS]
 *
 * SIGTERM/SIGINT drain gracefully: the daemon stops accepting,
 * finishes and flushes every admitted request, and exits 0. A second
 * signal force-exits immediately.
 */

#include <iostream>
#include <string>

#include "serve/server.hh"
#include "util/logging.hh"
#include "util/signals.hh"

using namespace gemstone;

namespace {

void
usage()
{
    std::cout <<
        "usage: gemstoned [options]\n"
        "  --socket PATH        Unix-domain socket to listen on\n"
        "  --tcp PORT           also listen on 127.0.0.1:PORT\n"
        "                       (0 picks an ephemeral port)\n"
        "  --max-active N       campaigns running concurrently "
        "(default 2)\n"
        "  --queue-depth N      admitted requests allowed to wait "
        "(default 8);\n"
        "                       beyond that submits are rejected "
        "(queue_full)\n"
        "  --store-capacity N   in-memory LRU bound of the shared "
        "result\n"
        "                       store (default 65536 entries)\n"
        "  --cache PATH         flock-guarded shared CSV tier: "
        "results\n"
        "                       persist across restarts and are "
        "shared with\n"
        "                       concurrent daemons on the same file\n"
        "  --heartbeat SECONDS  progress heartbeat period "
        "(default 1.0)\n"
        "  --journal DIR        durable-request journal directory: "
        "durable\n"
        "                       campaigns survive a daemon crash and "
        "restart\n"
        "                       (resumed from per-request "
        "checkpoints)\n"
        "  --retain SECONDS     keep finished unclaimed durable "
        "results\n"
        "                       this long for a late attach "
        "(default 3600)\n"
        "\n"
        "SIGTERM/SIGINT drain gracefully (exit 0); a second signal\n"
        "forces immediate exit.\n";
}

} // namespace

int
main(int argc, char **argv)
{
    serve::Server::Config config;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for ", arg);
            return argv[++i];
        };
        if (arg == "--socket") {
            config.socketPath = next();
        } else if (arg == "--tcp") {
            config.tcpPort = std::stoi(next());
            if (config.tcpPort < 0 || config.tcpPort > 65535)
                fatal("--tcp must be in [0, 65535]");
        } else if (arg == "--max-active") {
            int value = std::stoi(next());
            if (value < 1)
                fatal("--max-active must be >= 1");
            config.maxActive = static_cast<unsigned>(value);
        } else if (arg == "--queue-depth") {
            int value = std::stoi(next());
            if (value < 0)
                fatal("--queue-depth must be >= 0");
            config.queueDepth = static_cast<unsigned>(value);
        } else if (arg == "--store-capacity") {
            long value = std::stol(next());
            if (value < 1)
                fatal("--store-capacity must be >= 1");
            config.storeCapacity = static_cast<std::size_t>(value);
        } else if (arg == "--cache") {
            config.sharedTierPath = next();
        } else if (arg == "--heartbeat") {
            config.heartbeatSeconds = std::stod(next());
            if (config.heartbeatSeconds <= 0.0)
                fatal("--heartbeat must be > 0");
        } else if (arg == "--journal") {
            config.journalDir = next();
        } else if (arg == "--retain") {
            config.retainFinishedSeconds = std::stod(next());
            if (config.retainFinishedSeconds < 0.0)
                fatal("--retain must be >= 0");
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            usage();
            fatal("unknown option '", arg, "'");
        }
    }
    if (config.socketPath.empty() && config.tcpPort < 0) {
        usage();
        fatal("gemstoned needs --socket and/or --tcp");
    }

    // First SIGTERM/SIGINT -> graceful drain (the loop finishes and
    // flushes every admitted request, then run() returns Ok and the
    // daemon exits 0); a second signal force-exits.
    installSignalCancellation(config.drain);

    // A fatal() deep in a request (e.g. a spec naming a frequency
    // with no operating point) must not take the daemon down: throw
    // FatalError instead, which the request thread reports back to
    // its client as an error summary.
    setFatalThrows(true);

    serve::Server server(config);
    Status started = server.start();
    if (!started.ok())
        fatal("gemstoned: ", started.toString());

    if (!config.journalDir.empty())
        inform("gemstoned: journaling durable requests under ",
               config.journalDir);
    if (!config.socketPath.empty())
        inform("gemstoned: listening on ", config.socketPath);
    if (server.boundTcpPort() >= 0)
        inform("gemstoned: listening on 127.0.0.1:",
               server.boundTcpPort());

    Status ran = server.run();
    if (!ran.ok())
        fatal("gemstoned: ", ran.toString());
    return 0;
}
