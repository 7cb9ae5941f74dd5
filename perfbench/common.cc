/**
 * @file
 * Plan parsing, clocks and sample statistics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace perfbench {

using gemstone::hwsim::CpuCluster;

namespace {

CpuCluster
parseCluster(const std::string &tag)
{
    fatal_if(tag != "a7" && tag != "a15", "plan: unknown cluster ", tag);
    return tag == "a7" ? CpuCluster::LittleA7 : CpuCluster::BigA15;
}

std::vector<double>
parseFreqs(const std::string &text)
{
    std::vector<double> freqs;
    if (text == "all")
        return freqs;
    for (const std::string &part : gemstone::split(text, ','))
        freqs.push_back(std::stod(part));
    return freqs;
}

/** "<cluster> <g5v> <seed> <maxPoints> <freqs>" into a request. */
void
parseSpecFields(std::istringstream &in, RequestPlan &request)
{
    std::string cluster, seed, freqs;
    in >> cluster >> request.g5Version >> seed >> request.maxPoints >>
        freqs;
    fatal_if(!in, "plan: malformed spec fields");
    request.cluster = parseCluster(cluster);
    request.seed = std::stoull(seed, nullptr, 0);
    request.freqsMhz = parseFreqs(freqs);
}

std::vector<CampaignId>
parseOrder(std::istringstream &in)
{
    std::vector<CampaignId> order;
    std::string id;
    while (in >> id) {
        CampaignId campaign;
        fatal_if(!parseCampaignId(id, campaign),
                 "plan: unknown campaign ", id);
        order.push_back(campaign);
    }
    return order;
}

} // namespace

bool
parseCampaignId(const std::string &text, CampaignId &out)
{
    static const std::map<std::string, CampaignId> known = {
        {"val-a15-v1", {"val-a15-v1", true, CpuCluster::BigA15, 1}},
        {"val-a7-v1", {"val-a7-v1", true, CpuCluster::LittleA7, 1}},
        {"val-a15-v2", {"val-a15-v2", true, CpuCluster::BigA15, 2}},
        {"pow-a15", {"pow-a15", false, CpuCluster::BigA15, 1}},
        {"pow-a7", {"pow-a7", false, CpuCluster::LittleA7, 1}},
    };
    auto it = known.find(text);
    if (it == known.end())
        return false;
    out = it->second;
    return true;
}

const char *
requestKindName(RequestPlan::Kind kind)
{
    switch (kind) {
    case RequestPlan::Kind::Repeat:
        return "repeat";
    case RequestPlan::Kind::Fresh:
        return "fresh";
    case RequestPlan::Kind::Durable:
        return "durable";
    }
    return "?";
}

Plan
loadPlan(const std::string &path)
{
    std::ifstream file(path);
    fatal_if(!file, "cannot read plan ", path);
    Plan plan;
    std::string line;
    while (std::getline(file, line)) {
        std::istringstream in(line);
        std::string key;
        if (!(in >> key) || key[0] == '#')
            continue;
        if (key == "jobs") {
            in >> plan.jobs;
        } else if (key == "trace") {
            int flag = 0;
            in >> flag;
            plan.trace = flag != 0;
        } else if (key == "setups") {
            in >> plan.setups;
        } else if (key == "cold_passes") {
            in >> plan.coldPasses;
        } else if (key == "warm_passes") {
            in >> plan.warmPasses;
        } else if (key == "cold_order") {
            plan.coldOrder = parseOrder(in);
        } else if (key == "warm_order") {
            plan.warmOrder = parseOrder(in);
        } else if (key == "prewarm") {
            RequestPlan spec;
            parseSpecFields(in, spec);
            plan.prewarm.push_back(spec);
        } else if (key == "client") {
            plan.clients.emplace_back();
        } else if (key == "request") {
            fatal_if(plan.clients.empty(), "plan: request before client");
            std::string kind;
            in >> kind;
            RequestPlan request;
            if (kind == "fresh") {
                request.kind = RequestPlan::Kind::Fresh;
                parseSpecFields(in, request);
            } else {
                fatal_if(kind != "repeat" && kind != "durable",
                         "plan: unknown request kind ", kind);
                request.kind = kind == "repeat"
                    ? RequestPlan::Kind::Repeat
                    : RequestPlan::Kind::Durable;
                in >> request.prewarmIndex;
                fatal_if(!in || request.prewarmIndex >= plan.prewarm.size(),
                         "plan: bad prewarm index");
            }
            plan.clients.back().push_back(request);
        } else if (key == "stage_workloads") {
            std::string name;
            while (in >> name)
                plan.stageWorkloads.push_back(name);
        } else if (key == "digests") {
            in >> plan.digestsPath;
        } else if (key == "temp_dir") {
            in >> plan.tempDir;
        } else if (key == "trace_out") {
            in >> plan.traceOut;
        } else if (key == "write_digests") {
            int flag = 0;
            in >> flag;
            plan.writeDigests = flag != 0;
        } else {
            fatal("plan: unknown key ", key);
        }
        fatal_if(in.fail() && !in.eof(), "plan: malformed line: ", line);
    }
    fatal_if(plan.jobs == 0 || plan.setups == 0 || plan.coldPasses == 0 ||
                 plan.warmPasses == 0 || plan.coldOrder.empty() ||
                 plan.warmOrder.empty() || plan.clients.empty(),
             "plan: incomplete");
    return plan;
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
processCpuSeconds()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_utime.tv_sec + usage.ru_stime.tv_sec +
        (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

double
peakRssMb()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

Tail
tailOf(const std::vector<double> &values)
{
    Tail tail;
    tail.samples = values.size();
    for (double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
        if (values.size() * (100.0 - p) / 100.0 >= 10.0)
            tail.percentile = p;
    }
    tail.value = percentile(values, tail.percentile);
    return tail;
}

void
Metrics::set(const std::string &name, double value,
             const std::string &unit)
{
    for (auto &item : items) {
        if (item.first == name) {
            item.second = {value, unit};
            return;
        }
    }
    items.push_back({name, {value, unit}});
}

std::string
Metrics::json() const
{
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < items.size(); ++i) {
        double value = std::isfinite(items[i].second.first)
            ? items[i].second.first
            : 0.0;
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        out += (i ? ", \"" : "\"") + items[i].first +
            "\": {\"value\": " + buf + ", \"unit\": \"" +
            items[i].second.second + "\"}";
    }
    return out + "}";
}

} // namespace perfbench
