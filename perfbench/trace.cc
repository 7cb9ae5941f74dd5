/**
 * @file
 * Span recorder implementation.
 */

#include "trace.hh"

#include <fstream>
#include <functional>
#include <thread>

#include "bench.hh"

namespace perfbench {

namespace {

/** Open spans of this thread, innermost last: (tracer, index). */
thread_local std::vector<std::pair<const Tracer *, std::size_t>>
    openStack;

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

Tracer::Tracer() : epoch(nowSeconds()) {}

std::size_t
Tracer::open(const std::string &name, const std::string &layer,
             std::uint64_t request)
{
    Record record;
    record.name = name;
    record.layer = layer;
    record.request = request;
    for (auto it = openStack.rbegin(); it != openStack.rend(); ++it) {
        if (it->first == this) {
            record.parent = static_cast<long>(it->second);
            break;
        }
    }
    std::uint64_t tid =
        std::hash<std::thread::id>()(std::this_thread::get_id());
    std::size_t index;
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto [slot, added] =
            threadIds.emplace(tid, static_cast<unsigned>(threadIds.size()));
        record.thread = slot->second;
        record.start = nowSeconds() - epoch;
        index = spans.size();
        spans.push_back(std::move(record));
    }
    openStack.emplace_back(this, index);
    return index;
}

void
Tracer::close(std::size_t index)
{
    double end = nowSeconds() - epoch;
    {
        std::lock_guard<std::mutex> lock(mutex);
        spans[index].end = end;
    }
    for (auto it = openStack.rbegin(); it != openStack.rend(); ++it) {
        if (it->first == this && it->second == index) {
            openStack.erase(std::next(it).base());
            break;
        }
    }
}

std::vector<Tracer::Record>
Tracer::records() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return spans;
}

std::vector<double>
Tracer::selfSeconds() const
{
    std::vector<Record> all = records();
    std::vector<double> self(all.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        self[i] = all[i].end - all[i].start;
    for (const Record &r : all) {
        if (r.parent >= 0)
            self[r.parent] -= r.end - r.start;
    }
    return self;
}

std::map<std::string, double>
Tracer::selfByLayer() const
{
    std::vector<Record> all = records();
    std::vector<double> self = selfSeconds();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < all.size(); ++i)
        out[all[i].layer] += self[i];
    return out;
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::vector<Record> all = records();
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[128];
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Record &r = all[i];
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << jsonEscape(r.name)
            << "\",\"cat\":\"" << jsonEscape(r.layer)
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.thread;
        std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f",
                      r.start * 1e6, (r.end - r.start) * 1e6);
        out << buf << ",\"args\":{\"span\":" << i
            << ",\"parent\":" << r.parent;
        if (r.request)
            out << ",\"request\":" << r.request;
        out << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

Span::Span(Tracer *tracer, const std::string &name,
           const std::string &layer, std::uint64_t request)
    : owner(tracer)
{
    if (owner)
        index = owner->open(name, layer, request);
    start = nowSeconds();
}

Span::~Span() { stop(); }

double
Span::stop()
{
    if (elapsed < 0.0) {
        elapsed = nowSeconds() - start;
        if (owner)
            owner->close(index);
    }
    return elapsed;
}

} // namespace perfbench
