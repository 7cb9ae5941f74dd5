/**
 * @file
 * Wire protocol implementation.
 */

#include "exec/wireproto.hh"

#include <bit>
#include <cerrno>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define GEMSTONE_HAVE_UNISTD 1
#endif

namespace gemstone::exec {

namespace {

void
appendLe32(std::string &out, std::uint32_t value)
{
    out.push_back(static_cast<char>(value & 0xff));
    out.push_back(static_cast<char>((value >> 8) & 0xff));
    out.push_back(static_cast<char>((value >> 16) & 0xff));
    out.push_back(static_cast<char>((value >> 24) & 0xff));
}

std::uint32_t
readLe32(const char *data)
{
    const auto *bytes = reinterpret_cast<const unsigned char *>(data);
    return static_cast<std::uint32_t>(bytes[0]) |
        (static_cast<std::uint32_t>(bytes[1]) << 8) |
        (static_cast<std::uint32_t>(bytes[2]) << 16) |
        (static_cast<std::uint32_t>(bytes[3]) << 24);
}

} // namespace

std::string
encodeFrame(FrameType type, const std::string &payload)
{
    std::string out;
    out.reserve(payload.size() + 5);
    // The length covers the type byte plus the payload, so a decoder
    // that has the prefix knows exactly how much more to wait for.
    appendLe32(out, static_cast<std::uint32_t>(payload.size() + 1));
    out.push_back(static_cast<char>(type));
    out += payload;
    return out;
}

void
FrameDecoder::feed(const char *data, std::size_t size)
{
    if (isCorrupt)
        return;
    // Compact lazily: only when the dead prefix dominates the buffer.
    if (consumed > 4096 && consumed * 2 > buffer.size()) {
        buffer.erase(0, consumed);
        consumed = 0;
    }
    buffer.append(data, size);
}

bool
FrameDecoder::next(Frame &out)
{
    if (isCorrupt)
        return false;
    if (buffer.size() - consumed < 4)
        return false;
    std::uint32_t length = readLe32(buffer.data() + consumed);
    if (length == 0 || length > kMaxFramePayload + 1) {
        isCorrupt = true;
        return false;
    }
    if (buffer.size() - consumed < 4u + length)
        return false;
    out.type = static_cast<FrameType>(buffer[consumed + 4]);
    out.payload.assign(buffer, consumed + 5, length - 1);
    consumed += 4u + length;
    return true;
}

void
WireWriter::u8(std::uint8_t value)
{
    out.push_back(static_cast<char>(value));
}

void
WireWriter::u32(std::uint32_t value)
{
    appendLe32(out, value);
}

void
WireWriter::u64(std::uint64_t value)
{
    u32(static_cast<std::uint32_t>(value & 0xffffffffULL));
    u32(static_cast<std::uint32_t>(value >> 32));
}

void
WireWriter::f64(double value)
{
    u64(std::bit_cast<std::uint64_t>(value));
}

void
WireWriter::str(const std::string &value)
{
    u32(static_cast<std::uint32_t>(value.size()));
    out += value;
}

bool
WireReader::take(void *into, std::size_t count)
{
    if (!isOk || data.size() - pos < count) {
        isOk = false;
        return false;
    }
    std::memcpy(into, data.data() + pos, count);
    pos += count;
    return true;
}

std::uint8_t
WireReader::u8()
{
    std::uint8_t value = 0;
    take(&value, 1);
    return value;
}

std::uint32_t
WireReader::u32()
{
    char bytes[4];
    if (!take(bytes, 4))
        return 0;
    return readLe32(bytes);
}

std::uint64_t
WireReader::u64()
{
    std::uint64_t low = u32();
    std::uint64_t high = u32();
    return low | (high << 32);
}

double
WireReader::f64()
{
    return std::bit_cast<double>(u64());
}

std::string
WireReader::str()
{
    std::uint32_t length = u32();
    if (!isOk || data.size() - pos < length) {
        isOk = false;
        return {};
    }
    std::string value(data, pos, length);
    pos += length;
    return value;
}

bool
writeAll(int fd, const std::string &data)
{
#ifdef GEMSTONE_HAVE_UNISTD
    std::size_t written = 0;
    while (written < data.size()) {
        ssize_t n = ::write(fd, data.data() + written,
                            data.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        written += static_cast<std::size_t>(n);
    }
    return true;
#else
    (void)fd;
    (void)data;
    return false;
#endif
}

bool
writeFrame(int fd, FrameType type, const std::string &payload)
{
    return writeAll(fd, encodeFrame(type, payload));
}

} // namespace gemstone::exec
