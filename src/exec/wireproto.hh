/**
 * @file
 * Length-prefixed binary framing for the campaign service's sockets.
 *
 * gemstoned and its clients (src/serve/) exchange frames over stream
 * sockets: every message is one frame — a 32-bit little-endian
 * payload length, a one-byte frame type, then the payload. Frames are
 * self-delimiting, so a reader can feed arbitrary read() chunks into
 * a FrameDecoder and pull out complete frames as they form.
 *
 * Payloads are built and parsed with WireWriter/WireReader:
 * fixed-width little-endian integers, length-prefixed strings, and
 * doubles shipped as their raw IEEE-754 bits — the transfer is
 * bit-exact by construction, which is what lets streamed results
 * feed the repo's byte-identity contract.
 *
 * A length prefix larger than kMaxFramePayload marks the stream as
 * corrupt (a desynchronised or hostile peer); the decoder latches the
 * error instead of allocating an absurd buffer.
 */

#ifndef GEMSTONE_EXEC_WIREPROTO_HH
#define GEMSTONE_EXEC_WIREPROTO_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace gemstone::exec {

/**
 * Frame types of the gemstoned campaign-service protocol (see
 * src/serve/). The decoder never validates the type byte, so a
 * receiver must treat an unexpected value as a protocol error, not
 * trust it (serve does — daemon input is untrusted).
 */
enum class FrameType : std::uint8_t
{
    // serve/: client -> daemon requests.
    SubmitCampaign = 16, //!< submit a campaign spec
    CancelRequest = 17,  //!< cancel a previously submitted request
    QueryStatus = 18,    //!< ask for daemon status
    QueryStats = 19,     //!< ask for daemon + result-store counters
    Attach = 20,         //!< re-bind to a request by resume token

    // serve/: daemon -> client responses.
    Accepted = 24,      //!< submit admitted; request id + resume token
    Rejected = 25,      //!< submit refused (queue full, drain, bad)
    PointResult = 26,   //!< one settled campaign point (streamed)
    Progress = 27,      //!< periodic heartbeat: completed/total
    Summary = 28,       //!< final outcome + collated dataset CSV
    StatusReport = 29,  //!< reply to QueryStatus
    StatsReport = 30,   //!< reply to QueryStats
    ProtocolError = 31, //!< unparseable input; the daemon closes
    Resumed = 32,       //!< Attach succeeded; journal replay follows
};

/** One decoded frame. */
struct Frame
{
    FrameType type = FrameType::ProtocolError;
    std::string payload;
};

/** Refuse frames above this payload size (stream desync guard). */
inline constexpr std::size_t kMaxFramePayload = 64u << 20;

/** Serialise a frame (length prefix + type byte + payload). */
std::string encodeFrame(FrameType type, const std::string &payload);

/**
 * Incremental frame decoder. feed() appends raw bytes; next() pops
 * the oldest complete frame. Once corrupt() the decoder stays
 * corrupt and next() never yields again.
 */
class FrameDecoder
{
  public:
    void feed(const char *data, std::size_t size);

    /** Pop the next complete frame; false when none (or corrupt). */
    bool next(Frame &out);

    bool corrupt() const { return isCorrupt; }

    /** Bytes buffered but not yet consumed by next(). */
    std::size_t buffered() const { return buffer.size() - consumed; }

  private:
    std::string buffer;
    std::size_t consumed = 0;
    bool isCorrupt = false;
};

/**
 * Append-only payload builder. All integers little-endian; strings
 * are u32-length-prefixed; doubles are raw IEEE bits (bit-exact).
 */
class WireWriter
{
  public:
    void u8(std::uint8_t value);
    void u32(std::uint32_t value);
    void u64(std::uint64_t value);
    void f64(double value);
    void str(const std::string &value);

    const std::string &data() const { return out; }
    std::string take() { return std::move(out); }

  private:
    std::string out;
};

/**
 * Payload parser matching WireWriter. Reads return zero values once
 * the payload is exhausted or malformed; check ok() after parsing —
 * a truncated payload is a protocol error, not a crash.
 */
class WireReader
{
  public:
    explicit WireReader(const std::string &payload)
        : data(payload)
    {
    }

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    double f64();
    std::string str();

    /** True while every read so far was in bounds. */
    bool ok() const { return isOk; }

    /** True when the whole payload was consumed exactly. */
    bool done() const { return isOk && pos == data.size(); }

  private:
    bool take(void *into, std::size_t count);

    const std::string &data;
    std::size_t pos = 0;
    bool isOk = true;
};

/**
 * Write all of @p data to @p fd, retrying on EINTR and partial
 * writes. Returns false on any unrecoverable error (EPIPE included —
 * the caller treats the peer as dead).
 */
bool writeAll(int fd, const std::string &data);

/** writeAll() of one encoded frame. */
bool writeFrame(int fd, FrameType type, const std::string &payload);

} // namespace gemstone::exec

#endif // GEMSTONE_EXEC_WIREPROTO_HH
