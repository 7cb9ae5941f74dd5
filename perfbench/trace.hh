/**
 * @file
 * In-memory span recorder of the benchmark's traced run.
 *
 * Spans are opened around the benchmark's own calls into each layer's
 * public API, never inside the program. Each span records its name,
 * layer, start, end, the span that caused it (the innermost open span
 * of the same thread) and an optional request id shared by the spans
 * of one daemon request. Nothing is written until the run ends, when
 * the spans go out as Chrome trace-event JSON (chrome://tracing or
 * Perfetto open it offline).
 */

#ifndef GEMSTONE_PERFBENCH_TRACE_HH
#define GEMSTONE_PERFBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer
{
  public:
    struct Record
    {
        std::string name;
        std::string layer;
        double start = 0.0;  //!< seconds since the tracer epoch
        double end = 0.0;
        long parent = -1;    //!< index of the causing span, or -1
        unsigned thread = 0;
        std::uint64_t request = 0;
    };

    Tracer();

    /** Open a span on the calling thread; returns its index. */
    std::size_t open(const std::string &name, const std::string &layer,
                     std::uint64_t request);
    void close(std::size_t index);

    /** Snapshot of every recorded span. */
    std::vector<Record> records() const;

    /**
     * Self time of every span: its duration minus the time its child
     * spans cover (children run on the span's own thread, nested).
     */
    std::vector<double> selfSeconds() const;

    /** Sum of self time per layer. */
    std::map<std::string, double> selfByLayer() const;

    /** Write the spans as Chrome trace-event JSON. */
    bool writeChrome(const std::string &path) const;

  private:
    double epoch = 0.0;
    mutable std::mutex mutex;
    std::vector<Record> spans;
    std::map<std::uint64_t, unsigned> threadIds;
};

/**
 * RAII span. With a null tracer it only measures its own duration,
 * which is how the untraced runs time the same call sites.
 */
class Span
{
  public:
    Span(Tracer *tracer, const std::string &name,
         const std::string &layer, std::uint64_t request = 0);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Close now (idempotent); returns the span's duration. */
    double stop();

  private:
    Tracer *owner;
    std::size_t index = 0;
    double start = 0.0;
    double elapsed = -1.0;
};

} // namespace perfbench

#endif // GEMSTONE_PERFBENCH_TRACE_HH
