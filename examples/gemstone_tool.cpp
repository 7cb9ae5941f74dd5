/**
 * @file
 * The GemStone command-line tool: the automated flow of Fig. 1.
 *
 * Runs hardware characterisation, g5 simulation, collation, the
 * Section IV error analyses, power modelling and the Section VI
 * evaluations for one cluster, and writes the full artefact set
 * (report + CSV datasets) to a directory.
 *
 * Usage:
 *   gemstone_tool [--cluster a15|a7] [--g5-version 1|2]
 *                 [--freq MHZ] [--no-power] [--out DIR]
 *                 [--jobs N] [--cache PATH]
 *                 [--cache-capacity N] [--deadline SECONDS]
 *
 * Two subcommands front the campaign service (src/serve/):
 *
 *   gemstone_tool campaign ...   one-shot campaign, collated dataset
 *                                CSV to --out/stdout — the reference
 *                                bytes a daemon-served request must
 *                                reproduce exactly
 *   gemstone_tool ctl ...        gemstonectl: submit/stats/status
 *                                against a running gemstoned over
 *                                its socket, streaming results
 *
 * SIGINT/SIGTERM request a graceful stop: the run unwinds at the
 * next cooperative poll site and the tool exits with code 130; every
 * result finished before the stop is already in the --cache file.
 * A second signal aborts immediately. An overrun --deadline exits
 * with code 124.
 */

#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "exec/resultstore.hh"
#include "exec/threadpool.hh"
#include "gemstone/report.hh"
#include "serve/client.hh"
#include "serve/service.hh"
#include "util/cancellation.hh"
#include "util/logging.hh"
#include "util/signals.hh"
#include "util/strutil.hh"

using namespace gemstone;

namespace {

void
usage()
{
    std::cout <<
        "usage: gemstone_tool [options]\n"
        "  --cluster a15|a7   cluster to validate (default a15)\n"
        "  --g5-version 1|2   simulator release under test "
        "(default 1)\n"
        "  --freq MHZ         analysis frequency (default 1000)\n"
        "  --no-power         skip power modelling and Fig. 7/8\n"
        "  --no-csv           write only the text report\n"
        "  --out DIR          output directory "
        "(default gemstone-report)\n"
        "  --jobs N           worker threads for campaigns; 0 means "
        "all cores\n"
        "                     (default 1; results are identical at "
        "any N)\n"
        "  --cache PATH       result-store CSV: reuse results from "
        "PATH if it\n"
        "                     exists, append each new result as it "
        "finishes\n"
        "  --cache-capacity N in-memory LRU bound of the result "
        "store\n"
        "                     (default 65536 entries)\n"
        "  --deadline SECONDS wall-clock budget for the whole run; "
        "overrun\n"
        "                     exits with code 124 (default: "
        "unlimited)\n"
        "\n"
        "SIGINT/SIGTERM stop the run gracefully (exit code 130); a\n"
        "second signal forces immediate exit.\n"
        "\n"
        "Subcommands (see --help of each):\n"
        "  gemstone_tool campaign ...   one-shot campaign -> dataset "
        "CSV\n"
        "  gemstone_tool ctl ...        gemstonectl: talk to a "
        "running\n"
        "                               gemstoned daemon\n";
}

/**
 * Print the result store's statistics to stderr, so stdout stays the
 * report or dataset alone.
 */
void
printStoreStats(const std::shared_ptr<exec::ResultStore> &store,
                const std::string &cache_path)
{
    if (!store)
        return;
    exec::ResultStore::Stats stats = store->stats();
    std::cerr << "result store " << cache_path << ": "
              << store->size() << " entries (" << stats.hits
              << " hits, " << stats.misses << " misses, "
              << stats.insertions << " new, " << stats.evictions
              << " evicted)\n";
}

/** Write text to a file, or stdout when the path is "-" or empty. */
int
writeOutput(const std::string &path, const std::string &text)
{
    if (path.empty() || path == "-") {
        std::cout << text;
        return 0;
    }
    std::ofstream out(path, std::ios::binary);
    out << text;
    out.flush();
    if (!out) {
        std::cerr << "cannot write " << path << "\n";
        return 1;
    }
    return 0;
}

/**
 * Shared campaign-spec flags of `campaign` and `ctl submit`; true
 * when the flag was consumed. @p next pulls the flag's value.
 */
bool
parseSpecFlag(const std::string &arg,
              const std::function<std::string()> &next,
              serve::CampaignSpec &spec)
{
    if (arg == "--cluster") {
        std::string value = next();
        if (value == "a15") {
            spec.cluster = hwsim::CpuCluster::BigA15;
        } else if (value == "a7") {
            spec.cluster = hwsim::CpuCluster::LittleA7;
        } else {
            fatal("unknown cluster '", value, "'");
        }
    } else if (arg == "--g5-version") {
        spec.g5Version = std::stoi(next());
    } else if (arg == "--freq") {
        spec.freqsMhz.push_back(std::stod(next()));
    } else if (arg == "--repeats") {
        spec.repeats = static_cast<unsigned>(std::stoul(next()));
    } else if (arg == "--seed") {
        spec.seed = std::stoull(next());
    } else if (arg == "--board-variation") {
        spec.boardVariation = std::stod(next());
    } else if (arg == "--quorum") {
        spec.quorum = static_cast<unsigned>(std::stoul(next()));
    } else if (arg == "--max-attempts") {
        spec.maxAttempts = static_cast<unsigned>(std::stoul(next()));
    } else if (arg == "--jobs") {
        int jobs = std::stoi(next());
        if (jobs < 0)
            fatal("--jobs must be >= 0");
        spec.jobs = jobs == 0 ? exec::ThreadPool::defaultThreadCount()
                              : static_cast<unsigned>(jobs);
    } else if (arg == "--max-points") {
        spec.maxPoints = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (arg == "--deadline") {
        spec.deadlineSeconds = std::stod(next());
        if (spec.deadlineSeconds < 0.0)
            fatal("--deadline must be >= 0");
    } else if (arg == "--tag") {
        spec.tag = next();
    } else {
        return false;
    }
    return true;
}

const char kSpecFlagsHelp[] =
    "  --cluster a15|a7     cluster to validate (default a15)\n"
    "  --g5-version 1|2     simulator release under test (default 1)\n"
    "  --freq MHZ           add a DVFS point (repeatable; default: "
    "the\n"
    "                       cluster's paper frequencies)\n"
    "  --repeats N          timing repeats per measurement "
    "(default 5)\n"
    "  --seed N             master noise seed\n"
    "  --board-variation X  board-to-board coefficient spread\n"
    "  --quorum N           non-outlier repeats per point "
    "(default 3)\n"
    "  --max-attempts N     attempt budget per point (default 8)\n"
    "  --jobs N             campaign worker threads; 0 = all cores\n"
    "  --max-points N       truncate the campaign (0 = all points)\n"
    "  --deadline SECONDS   wall-clock budget (0 = unlimited)\n"
    "  --tag STR            label echoed in daemon logs\n";

/** `gemstone_tool campaign`: one-shot run -> dataset CSV. */
int
campaignMain(int argc, char **argv)
{
    serve::CampaignSpec spec;
    std::string out_path;
    std::string cache_path;
    std::size_t cache_capacity = 65536;
    bool quiet = false;

    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for ", arg);
            return argv[++i];
        };
        if (parseSpecFlag(arg, next, spec)) {
            continue;
        } else if (arg == "--out") {
            out_path = next();
        } else if (arg == "--cache") {
            cache_path = next();
        } else if (arg == "--cache-capacity") {
            long value = std::stol(next());
            if (value < 1)
                fatal("--cache-capacity must be >= 1");
            cache_capacity = static_cast<std::size_t>(value);
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            std::cout
                << "usage: gemstone_tool campaign [options]\n"
                << kSpecFlagsHelp
                << "  --out FILE           dataset CSV destination "
                   "(default stdout)\n"
                   "  --cache PATH         result-store CSV "
                   "(reused, appended to)\n"
                   "  --cache-capacity N   in-memory LRU bound\n"
                   "  --quiet              no per-point progress on "
                   "stderr\n";
            return 0;
        } else {
            fatal("unknown option '", arg,
                  "' (see gemstone_tool campaign --help)");
        }
    }

    std::string invalid = serve::validateCampaignSpec(spec);
    if (!invalid.empty())
        fatal("invalid campaign: ", invalid);

    CancellationToken cancel;
    installSignalCancellation(cancel);

    auto store = std::make_shared<exec::ResultStore>(cache_capacity);
    if (!cache_path.empty()) {
        // The shared tier appends every result as it finishes, so
        // nothing is saved at exit.
        Status attached = store->attachSharedTier(cache_path);
        if (!attached.ok())
            fatal("--cache: ", attached.toString());
        std::size_t loaded = store->size();
        if (loaded > 0 && !quiet)
            std::cerr << "loaded " << loaded
                      << " cached results from " << cache_path
                      << "\n";
    }

    serve::CampaignOutcome outcome = serve::runCampaign(
        spec, store,
        quiet ? core::CampaignConfig::PointSink()
              : [](const core::CampaignPoint &point, std::size_t index,
                   std::size_t total) {
                    std::cerr << "point " << (index + 1) << "/"
                              << total << " " << point.workload << "@"
                              << formatDouble(point.freqMhz, 0) << " "
                              << core::pointStatusTag(point.status)
                              << "\n";
                },
        cancel);

    if (!cache_path.empty())
        printStoreStats(store, cache_path);
    for (const std::string &warning : outcome.warnings)
        std::cerr << "warning: " << warning << "\n";

    switch (outcome.outcome) {
      case serve::RequestOutcome::Ok: {
        return writeOutput(out_path, outcome.datasetCsv);
      }
      case serve::RequestOutcome::Cancelled:
        std::cerr << "campaign interrupted\n";
        return kExitCancelled;
      case serve::RequestOutcome::Deadline:
        std::cerr << "campaign deadline exceeded\n";
        return kExitDeadline;
      case serve::RequestOutcome::Error:
        std::cerr << "campaign failed: " << outcome.error << "\n";
        return 1;
    }
    return 1;
}

/**
 * Parse a spec-list file for `ctl submit-batch`: one campaign per
 * line, written with the same flags `submit` takes (plus --durable),
 * applied over the command line's shared spec as defaults. Blank
 * lines and lines starting with '#' are skipped.
 */
std::vector<serve::CampaignSpec>
loadSpecList(const std::string &path, const serve::CampaignSpec &base)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot read spec list ", path);
    std::vector<serve::CampaignSpec> specs;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        std::istringstream tokens(line);
        std::vector<std::string> words;
        std::string word;
        while (tokens >> word)
            words.push_back(word);
        if (words.empty() || words[0][0] == '#')
            continue;
        serve::CampaignSpec spec = base;
        for (std::size_t i = 0; i < words.size(); ++i) {
            const std::string &arg = words[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= words.size()) {
                    fatal(path, ":", line_no, ": missing value for ",
                          arg);
                }
                return words[++i];
            };
            if (arg == "--durable") {
                spec.durable = true;
            } else if (!parseSpecFlag(arg, next, spec)) {
                fatal(path, ":", line_no, ": unknown spec flag '",
                      arg, "'");
            }
        }
        std::string invalid = serve::validateCampaignSpec(spec);
        if (!invalid.empty())
            fatal(path, ":", line_no, ": invalid campaign: ", invalid);
        specs.push_back(std::move(spec));
    }
    if (specs.empty())
        fatal("spec list ", path, " has no campaigns");
    return specs;
}

/** `gemstone_tool ctl` (gemstonectl): talk to a gemstoned daemon. */
int
ctlMain(int argc, char **argv)
{
    std::string socket_path;
    std::string host = "127.0.0.1";
    int tcp_port = -1;
    std::string command;
    serve::CampaignSpec spec;
    std::string out_path;
    bool quiet = false;
    std::uint64_t cancel_id = 0;
    std::string attach_token;
    std::string token_file;
    std::string spec_file;
    std::string out_dir;
    double io_timeout = 30.0;
    int retries = -1;  // -1 = default: 8 for durable streams

    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for ", arg);
            return argv[++i];
        };
        if (arg == "--socket") {
            socket_path = next();
        } else if (arg == "--tcp") {
            tcp_port = std::stoi(next());
        } else if (arg == "--host") {
            host = next();
        } else if (arg == "--out") {
            out_path = next();
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--request") {
            cancel_id = std::stoull(next());
        } else if (arg == "--durable") {
            spec.durable = true;
        } else if (arg == "--token") {
            attach_token = next();
        } else if (arg == "--token-file") {
            token_file = next();
        } else if (arg == "--spec-file") {
            spec_file = next();
        } else if (arg == "--out-dir") {
            out_dir = next();
        } else if (arg == "--timeout") {
            io_timeout = std::stod(next());
            if (io_timeout < 0.0)
                fatal("--timeout must be >= 0");
        } else if (arg == "--retries") {
            retries = std::stoi(next());
            if (retries < 0)
                fatal("--retries must be >= 0");
        } else if (parseSpecFlag(arg, next, spec)) {
            continue;
        } else if (arg == "--help" || arg == "-h") {
            std::cout
                << "usage: gemstone_tool ctl [--socket PATH | --tcp "
                   "PORT [--host IP]]\n"
                   "                         submit|submit-batch|"
                   "attach|stats|status|cancel\n"
                   "                         [options]\n"
                   "\n"
                   "submit streams a campaign and writes the "
                   "collated dataset CSV\n"
                   "to --out (default stdout); its options:\n"
                << kSpecFlagsHelp
                << "  --out FILE           dataset CSV destination\n"
                   "  --quiet              no progress on stderr\n"
                   "  --durable            survive disconnects and "
                   "daemon restarts:\n"
                   "                       the daemon detaches (not "
                   "cancels) on\n"
                   "                       disconnect and journals "
                   "the request;\n"
                   "                       the client auto-reconnects "
                   "and re-attaches\n"
                   "  --token-file FILE    write the resume token "
                   "here once accepted\n"
                   "  --retries N          reconnect attempts per "
                   "outage (default 8\n"
                   "                       for durable streams, 0 "
                   "otherwise)\n"
                   "\n"
                   "submit-batch pipelines every campaign of "
                   "--spec-file FILE (one\n"
                   "spec per line, same flags as submit plus "
                   "--durable; command-line\n"
                   "spec flags are shared defaults) over this one "
                   "connection and\n"
                   "demultiplexes the streams; each dataset CSV goes "
                   "to\n"
                   "--out-dir DIR/batch-<i>.csv (default stdout, "
                   "concatenated in\n"
                   "spec order).\n"
                   "\n"
                   "attach re-binds to a request by resume token "
                   "(--token STR or\n"
                   "--token-file FILE), replays its settled points "
                   "and streams to\n"
                   "the summary; same output options as submit.\n"
                   "\n"
                   "cancel needs --request ID.\n"
                   "\n"
                   "stats/status wait at most --timeout SECONDS "
                   "(default 30,\n"
                   "0 = forever) for the reply.\n"
                   "\n"
                   "exit codes: 0 ok, 2 rejected by admission "
                   "control,\n"
                   "124 deadline, 130 cancelled, 1 transport/protocol "
                   "error\n";
            return 0;
        } else if (!arg.empty() && arg[0] != '-' && command.empty()) {
            command = arg;
        } else {
            fatal("unknown option '", arg,
                  "' (see gemstone_tool ctl --help)");
        }
    }
    if (command.empty()) {
        fatal("ctl needs a command: submit, submit-batch, attach, "
              "stats, status or cancel");
    }
    if (socket_path.empty() && tcp_port < 0)
        fatal("ctl needs --socket or --tcp");

    serve::Client client;
    client.setIoTimeout(io_timeout);
    Status connected = socket_path.empty()
        ? client.connectTcp(host, tcp_port)
        : client.connectUnix(socket_path);
    if (!connected.ok()) {
        std::cerr << "gemstonectl: " << connected.toString() << "\n";
        return 1;
    }
    // A transport failure that was a timeout maps to the repo-wide
    // deadline exit code, so scripts can tell "daemon wedged" from
    // "protocol broke".
    auto transportExit = [](const Status &status) {
        return status.code() == StatusCode::DeadlineExceeded
            ? kExitDeadline
            : 1;
    };

    if (command == "stats") {
        serve::DaemonStats stats;
        Status status = client.queryStats(stats);
        if (!status.ok()) {
            std::cerr << "gemstonectl: " << status.toString() << "\n";
            return transportExit(status);
        }
        std::cout << "connections: " << stats.connectionsOpen
                  << " open / " << stats.connectionsTotal
                  << " total\n"
                  << "requests: " << stats.requestsAccepted
                  << " accepted, " << stats.requestsServed
                  << " served, " << stats.requestsCancelled
                  << " cancelled, " << stats.requestsFailed
                  << " failed, " << stats.requestsRejected
                  << " rejected\n"
                  << "durability: " << stats.requestsRecovered
                  << " recovered at boot, "
                  << stats.requestsReattached << " re-attached\n"
                  << "load: " << stats.requestsActive << " active, "
                  << stats.requestsQueued << " queued"
                  << (stats.draining ? ", draining" : "") << "\n"
                  << "store: " << stats.storeSize << "/"
                  << stats.storeCapacity << " entries, "
                  << stats.storeHits << " hits, " << stats.storeMisses
                  << " misses, " << stats.storeInsertions
                  << " insertions, " << stats.storeEvictions
                  << " evictions, " << stats.storeSharedHits
                  << " shared-tier hits\n"
                  << "predecode: " << stats.predecodeHits
                  << " hits, " << stats.predecodeMisses
                  << " misses, " << stats.predecodeInserts
                  << " inserts\n";
        return 0;
    }
    if (command == "status") {
        std::string text;
        Status status = client.queryStatus(text);
        if (!status.ok()) {
            std::cerr << "gemstonectl: " << status.toString() << "\n";
            return transportExit(status);
        }
        std::cout << text << "\n";
        return 0;
    }
    if (command == "cancel") {
        if (cancel_id == 0)
            fatal("cancel needs --request ID");
        Status status = client.sendCancel(cancel_id);
        if (!status.ok()) {
            std::cerr << "gemstonectl: " << status.toString() << "\n";
            return 1;
        }
        return 0;
    }
    if (command == "submit-batch") {
        if (spec_file.empty())
            fatal("submit-batch needs --spec-file FILE");
        std::vector<serve::CampaignSpec> specs =
            loadSpecList(spec_file, spec);

        serve::Client::ReconnectPolicy policy;
        policy.maxAttempts = retries >= 0
            ? static_cast<unsigned>(retries)
            : 8;  // engages only when every pending spec is durable
        client.setReconnectPolicy(policy);

        serve::Client::BatchCallbacks callbacks;
        if (!quiet) {
            callbacks.onAccepted = [&](std::size_t idx,
                                       const serve::Accepted &a) {
                std::cerr << "spec " << idx << ": accepted as request "
                          << a.requestId << " (token " << a.token
                          << ")\n";
            };
            callbacks.onResumed = [&](std::size_t idx,
                                      const serve::ResumeInfo &info) {
                std::cerr << "spec " << idx << ": re-attached to "
                          << "request " << info.requestId << "\n";
            };
            callbacks.onPoint = [&](std::size_t idx,
                                    const serve::PointUpdate &u) {
                std::cerr << "spec " << idx << ": point "
                          << (u.index + 1) << "/" << u.total << " "
                          << u.workload << "@"
                          << formatDouble(u.freqMhz, 0) << " "
                          << u.statusTag << "\n";
            };
        }

        std::vector<serve::Client::SubmitResult> results;
        Status status = client.submitMany(specs, results, callbacks);
        if (!status.ok()) {
            std::cerr << "gemstonectl: " << status.toString() << "\n";
            return transportExit(status);
        }

        int exit_code = 0;
        auto worsen = [&](int code) {
            exit_code = std::max(exit_code, code);
        };
        for (std::size_t i = 0; i < results.size(); ++i) {
            const serve::Client::SubmitResult &result = results[i];
            if (!result.accepted) {
                std::cerr << "spec " << i << ": rejected ("
                          << serve::rejectReasonTag(
                                 result.rejection.reason)
                          << "): " << result.rejection.message
                          << "\n";
                worsen(2);
                continue;
            }
            for (const std::string &warning : result.summary.warnings)
                std::cerr << "spec " << i << ": warning: " << warning
                          << "\n";
            switch (result.summary.outcome) {
              case serve::RequestOutcome::Ok: {
                std::string path = out_dir.empty()
                    ? ""
                    : out_dir + "/batch-" + std::to_string(i) +
                        ".csv";
                worsen(writeOutput(path,
                                   result.summary.datasetCsv));
                break;
              }
              case serve::RequestOutcome::Cancelled:
                std::cerr << "spec " << i << ": cancelled\n";
                worsen(kExitCancelled);
                break;
              case serve::RequestOutcome::Deadline:
                std::cerr << "spec " << i
                          << ": deadline exceeded\n";
                worsen(kExitDeadline);
                break;
              case serve::RequestOutcome::Error:
                std::cerr << "spec " << i << ": campaign failed: "
                          << result.summary.error << "\n";
                worsen(1);
                break;
            }
        }
        return exit_code;
    }

    if (command != "submit" && command != "attach")
        fatal("unknown ctl command '", command, "'");

    if (command == "attach") {
        if (attach_token.empty() && !token_file.empty()) {
            std::ifstream in(token_file);
            std::getline(in, attach_token);
            if (!in.good() && attach_token.empty())
                fatal("cannot read token from ", token_file);
        }
        if (attach_token.empty())
            fatal("attach needs --token STR or --token-file FILE");
    } else {
        std::string invalid = serve::validateCampaignSpec(spec);
        if (!invalid.empty())
            fatal("invalid campaign: ", invalid);
    }

    // Self-healing: durable submits and attaches reconnect with
    // backoff, re-attach by token, and fall back to an idempotent
    // re-submit; a plain submit keeps single-shot semantics.
    serve::Client::ReconnectPolicy policy;
    bool durable_stream = spec.durable || command == "attach";
    policy.maxAttempts = retries >= 0
        ? static_cast<unsigned>(retries)
        : (durable_stream ? 8 : 0);
    client.setReconnectPolicy(policy);

    // Ctrl-C while streaming: ask the daemon to cancel the request,
    // then keep reading — the daemon answers with a cancelled
    // summary once the campaign drains at a point boundary.
    CancellationToken interrupt;
    installSignalCancellation(interrupt);

    std::uint64_t request_id = 0;
    auto saveToken = [&](const std::string &token) {
        if (token_file.empty() || token.empty())
            return;
        std::ofstream out(token_file, std::ios::trunc);
        out << token << "\n";
        out.flush();
        if (!out)
            std::cerr << "warning: cannot write " << token_file
                      << "\n";
    };
    serve::Client::Callbacks callbacks;
    callbacks.onAccepted = [&](const serve::Accepted &accepted) {
        request_id = accepted.requestId;
        saveToken(accepted.token);
        if (!quiet) {
            std::cerr << "accepted as request " << accepted.requestId
                      << " (token " << accepted.token << ")\n";
        }
    };
    callbacks.onResumed = [&](const serve::ResumeInfo &info) {
        request_id = info.requestId;
        saveToken(info.token);
        if (!quiet) {
            std::cerr << "attached to request " << info.requestId
                      << "; replaying " << info.replayPoints
                      << " settled points\n";
        }
    };
    bool cancel_sent = false;
    callbacks.onPoint = [&](const serve::PointUpdate &update) {
        if (!quiet) {
            std::cerr << "point " << (update.index + 1) << "/"
                      << update.total << " " << update.workload << "@"
                      << formatDouble(update.freqMhz, 0) << " "
                      << update.statusTag << "\n";
        }
        if (interrupt.cancelled() && !cancel_sent && request_id != 0) {
            cancel_sent = true;
            client.sendCancel(request_id);
        }
    };
    callbacks.onProgress = [&](const serve::ProgressUpdate &) {
        if (interrupt.cancelled() && !cancel_sent && request_id != 0) {
            cancel_sent = true;
            client.sendCancel(request_id);
        }
    };

    serve::Client::SubmitResult result;
    Status status = command == "attach"
        ? client.attach(attach_token, result, callbacks)
        : client.submit(spec, result, callbacks);
    if (!status.ok()) {
        std::cerr << "gemstonectl: " << status.toString() << "\n";
        return transportExit(status);
    }
    if (!result.accepted) {
        std::cerr << "gemstonectl: rejected ("
                  << serve::rejectReasonTag(result.rejection.reason)
                  << "): " << result.rejection.message << "\n";
        return 2;
    }
    if (!quiet && result.reconnects > 0) {
        std::cerr << "gemstonectl: stream self-healed "
                  << result.reconnects << " time(s)\n";
    }
    for (const std::string &warning : result.summary.warnings)
        std::cerr << "warning: " << warning << "\n";
    switch (result.summary.outcome) {
      case serve::RequestOutcome::Ok:
        return writeOutput(out_path, result.summary.datasetCsv);
      case serve::RequestOutcome::Cancelled:
        std::cerr << "gemstonectl: request cancelled\n";
        return kExitCancelled;
      case serve::RequestOutcome::Deadline:
        std::cerr << "gemstonectl: request deadline exceeded\n";
        return kExitDeadline;
      case serve::RequestOutcome::Error:
        std::cerr << "gemstonectl: campaign failed: "
                  << result.summary.error << "\n";
        return 1;
    }
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1) {
        std::string sub = argv[1];
        if (sub == "campaign")
            return campaignMain(argc - 2, argv + 2);
        if (sub == "ctl" || sub == "gemstonectl")
            return ctlMain(argc - 2, argv + 2);
    }

    core::RunnerConfig runner_config;
    core::ReportConfig report_config;
    std::string out_dir = "gemstone-report";
    std::string cache_path;
    std::size_t cache_capacity = 65536;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for ", arg);
            return argv[++i];
        };
        if (arg == "--cluster") {
            std::string value = next();
            if (value == "a15") {
                report_config.cluster = hwsim::CpuCluster::BigA15;
            } else if (value == "a7") {
                report_config.cluster = hwsim::CpuCluster::LittleA7;
            } else {
                fatal("unknown cluster '", value, "'");
            }
        } else if (arg == "--g5-version") {
            runner_config.g5Version = std::stoi(next());
        } else if (arg == "--freq") {
            report_config.analysisFreqMhz = std::stod(next());
        } else if (arg == "--no-power") {
            report_config.includePower = false;
        } else if (arg == "--no-csv") {
            report_config.writeCsv = false;
        } else if (arg == "--out") {
            out_dir = next();
        } else if (arg == "--jobs") {
            int jobs = std::stoi(next());
            if (jobs < 0)
                fatal("--jobs must be >= 0");
            runner_config.jobs =
                jobs == 0 ? exec::ThreadPool::defaultThreadCount()
                          : static_cast<unsigned>(jobs);
        } else if (arg == "--cache") {
            cache_path = next();
        } else if (arg == "--cache-capacity") {
            long value = std::stol(next());
            if (value < 1)
                fatal("--cache-capacity must be >= 1");
            cache_capacity = static_cast<std::size_t>(value);
        } else if (arg == "--deadline") {
            runner_config.runDeadlineSeconds = std::stod(next());
            if (runner_config.runDeadlineSeconds < 0.0)
                fatal("--deadline must be >= 0");
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            usage();
            fatal("unknown option '", arg, "'");
        }
    }

    installSignalCancellation(runner_config.cancel);

    core::ExperimentRunner runner(runner_config);

    std::shared_ptr<exec::ResultStore> store;
    if (!cache_path.empty()) {
        store = std::make_shared<exec::ResultStore>(cache_capacity);
        Status attached = store->attachSharedTier(cache_path);
        if (!attached.ok())
            fatal("--cache: ", attached.toString());
        std::size_t loaded = store->size();
        if (loaded > 0)
            std::cerr << "loaded " << loaded << " cached results from "
                      << cache_path << "\n";
        runner.attachResultStore(store);
    }

    try {
        core::Report report =
            core::generateReport(runner, report_config);

        report.writeText(std::cout);

        std::size_t files = core::writeReportFiles(report, out_dir);
        std::cout << "\nwrote " << files << " artefact files to "
                  << out_dir << "/\n";
    } catch (const DeadlineError &e) {
        printStoreStats(store, cache_path);
        std::cerr << "gemstone_tool: deadline exceeded: " << e.what()
                  << "\n";
        return kExitDeadline;
    } catch (const CancelledError &e) {
        printStoreStats(store, cache_path);
        std::cerr << "gemstone_tool: interrupted: " << e.what()
                  << "\n";
        return kExitCancelled;
    }

    printStoreStats(store, cache_path);
    return 0;
}
