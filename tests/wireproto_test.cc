/**
 * @file
 * The length-prefixed wire framing (exec/wireproto) that gemstoned
 * and its clients speak: payload round trips, chunked reassembly,
 * torn streams and corrupt length prefixes.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "exec/wireproto.hh"

using namespace gemstone;
using exec::Frame;
using exec::FrameDecoder;
using exec::FrameType;
using exec::WireReader;
using exec::WireWriter;

TEST(WireProto, WriterReaderRoundTrip)
{
    WireWriter w;
    w.u8(0xfe);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefULL);
    w.f64(-0.0);
    w.f64(1e-308);  // denormal territory: bits must survive
    w.str(std::string("with\0nul and \nnewline", 21));
    w.str("");

    WireReader r(w.data());
    EXPECT_EQ(r.u8(), 0xfe);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    double negzero = r.f64();
    EXPECT_EQ(std::memcmp(&negzero, "\0\0\0\0\0\0\0\x80", 8), 0);
    EXPECT_EQ(r.f64(), 1e-308);
    EXPECT_EQ(r.str(), std::string("with\0nul and \nnewline", 21));
    EXPECT_EQ(r.str(), "");
    EXPECT_TRUE(r.done());
}

TEST(WireProto, TruncatedPayloadIsAnErrorNotACrash)
{
    WireWriter w;
    w.u32(7);
    w.str("hello");
    std::string cut = w.data().substr(0, w.data().size() - 2);

    WireReader r(cut);
    EXPECT_EQ(r.u32(), 7u);
    r.str();  // runs off the end
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.done());
    // Subsequent reads stay zero-valued, never UB.
    EXPECT_EQ(r.u64(), 0u);
}

TEST(WireProto, DecoderReassemblesArbitraryChunks)
{
    std::string stream;
    stream += exec::encodeFrame(FrameType::SubmitCampaign, {});
    stream += exec::encodeFrame(FrameType::Accepted, "payload one");
    stream += exec::encodeFrame(FrameType::PointResult,
                                std::string("\0\x01\x02", 3));

    // Worst case: one byte at a time.
    FrameDecoder decoder;
    std::vector<Frame> frames;
    Frame frame;
    for (char c : stream) {
        decoder.feed(&c, 1);
        while (decoder.next(frame))
            frames.push_back(frame);
    }
    ASSERT_EQ(frames.size(), 3u);
    EXPECT_EQ(frames[0].type, FrameType::SubmitCampaign);
    EXPECT_EQ(frames[1].type, FrameType::Accepted);
    EXPECT_EQ(frames[1].payload, "payload one");
    EXPECT_EQ(frames[2].type, FrameType::PointResult);
    EXPECT_EQ(frames[2].payload, std::string("\0\x01\x02", 3));
    EXPECT_FALSE(decoder.corrupt());
    EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(WireProto, AbsurdLengthPrefixLatchesCorrupt)
{
    // 0xffffffff bytes claimed: way past kMaxFramePayload.
    const char bogus[5] = {'\xff', '\xff', '\xff', '\xff', 1};
    FrameDecoder decoder;
    decoder.feed(bogus, sizeof bogus);
    Frame frame;
    EXPECT_FALSE(decoder.next(frame));
    EXPECT_TRUE(decoder.corrupt());
    // Feeding a valid frame afterwards must not resurrect it.
    std::string good =
        exec::encodeFrame(FrameType::SubmitCampaign, {});
    decoder.feed(good.data(), good.size());
    EXPECT_FALSE(decoder.next(frame));
    EXPECT_TRUE(decoder.corrupt());
}

TEST(WireProto, TornFrameFuzzEveryTruncationPoint)
{
    // A realistic multi-frame stream, including an empty payload and
    // an embedded-NUL payload.
    std::string stream;
    stream += exec::encodeFrame(FrameType::SubmitCampaign, {});
    stream += exec::encodeFrame(FrameType::Accepted, "payload one");
    stream += exec::encodeFrame(FrameType::PointResult,
                                std::string("\0\x01\x02", 3));
    std::vector<std::size_t> boundaries = {
        exec::encodeFrame(FrameType::SubmitCampaign, {}).size()};
    boundaries.push_back(
        boundaries[0] +
        exec::encodeFrame(FrameType::Accepted, "payload one").size());
    boundaries.push_back(stream.size());

    // Tear the stream at every byte offset: the decoder must emit
    // exactly the frames whose bytes are fully present, buffer the
    // rest, and never latch corrupt — a torn frame is incomplete
    // input, not hostile input.
    for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
        FrameDecoder decoder;
        decoder.feed(stream.data(), cut);
        std::size_t complete = 0;
        Frame frame;
        while (decoder.next(frame))
            ++complete;
        std::size_t expected = 0;
        for (std::size_t boundary : boundaries)
            expected += cut >= boundary ? 1 : 0;
        EXPECT_EQ(complete, expected) << "cut at " << cut;
        EXPECT_FALSE(decoder.corrupt()) << "cut at " << cut;
        EXPECT_EQ(decoder.buffered(),
                  cut - (complete == 0
                             ? 0
                             : boundaries[complete - 1]))
            << "cut at " << cut;

        // Feeding the remainder always completes the stream: a torn
        // read followed by the rest of the bytes loses nothing.
        decoder.feed(stream.data() + cut, stream.size() - cut);
        while (decoder.next(frame))
            ++complete;
        EXPECT_EQ(complete, boundaries.size()) << "cut at " << cut;
        EXPECT_FALSE(decoder.corrupt());
        EXPECT_EQ(decoder.buffered(), 0u);
    }
}

TEST(WireProto, OversizedLengthFedByteAtATimeLatchesCleanly)
{
    // Length prefix one past the cap (the length field counts the
    // type byte, so the largest legal value is kMaxFramePayload + 1),
    // dribbled in a byte at a time: the decoder must latch corrupt as
    // soon as the length field convicts and stay latched — no
    // allocation of the claimed size, no partial frame, no
    // resurrection from later valid bytes.
    const std::uint64_t claimed = exec::kMaxFramePayload + 2;
    char header[5];
    header[0] = static_cast<char>(claimed & 0xff);
    header[1] = static_cast<char>((claimed >> 8) & 0xff);
    header[2] = static_cast<char>((claimed >> 16) & 0xff);
    header[3] = static_cast<char>((claimed >> 24) & 0xff);
    header[4] = 1;

    FrameDecoder decoder;
    Frame frame;
    for (std::size_t i = 0; i < sizeof header; ++i) {
        decoder.feed(header + i, 1);
        EXPECT_FALSE(decoder.next(frame));
        // The length field alone is enough to convict; the decoder
        // may latch as soon as all four length bytes are in.
        if (i < 3) {
            EXPECT_FALSE(decoder.corrupt()) << "byte " << i;
        }
    }
    EXPECT_TRUE(decoder.corrupt());

    std::string good =
        exec::encodeFrame(FrameType::SubmitCampaign, {});
    for (char c : good) {
        decoder.feed(&c, 1);
        EXPECT_FALSE(decoder.next(frame));
    }
    EXPECT_TRUE(decoder.corrupt());
}
