/**
 * @file
 * Serve protocol payload encode/decode.
 */

#include "serve/protocol.hh"

#include <cmath>

#include "exec/wireproto.hh"

namespace gemstone::serve {

using exec::WireReader;
using exec::WireWriter;

std::string
rejectReasonTag(RejectReason reason)
{
    switch (reason) {
      case RejectReason::QueueFull:
        return "queue_full";
      case RejectReason::Draining:
        return "draining";
      case RejectReason::BadRequest:
        return "bad_request";
      case RejectReason::UnknownToken:
        return "unknown_token";
    }
    return "?";
}

std::string
requestOutcomeTag(RequestOutcome outcome)
{
    switch (outcome) {
      case RequestOutcome::Ok:
        return "ok";
      case RequestOutcome::Cancelled:
        return "cancelled";
      case RequestOutcome::Deadline:
        return "deadline_exceeded";
      case RequestOutcome::Error:
        return "error";
    }
    return "?";
}

std::string
encodeCampaignSpec(const CampaignSpec &spec)
{
    WireWriter w;
    w.u32(kProtocolVersion);
    w.u8(spec.cluster == hwsim::CpuCluster::BigA15 ? 1 : 0);
    w.u8(static_cast<std::uint8_t>(spec.g5Version));
    w.u32(spec.repeats);
    w.u64(spec.seed);
    w.f64(spec.boardVariation);
    w.u32(spec.quorum);
    w.u32(spec.maxAttempts);
    w.u32(spec.jobs);
    w.u32(spec.maxPoints);
    w.f64(spec.deadlineSeconds);
    w.u32(static_cast<std::uint32_t>(spec.freqsMhz.size()));
    for (double freq : spec.freqsMhz)
        w.f64(freq);
    w.str(spec.tag);
    w.u8(spec.durable ? 1 : 0);
    return w.take();
}

bool
decodeCampaignSpec(const std::string &payload, CampaignSpec &out)
{
    WireReader r(payload);
    if (r.u32() != kProtocolVersion)
        return false;
    out.cluster = r.u8() != 0 ? hwsim::CpuCluster::BigA15
                              : hwsim::CpuCluster::LittleA7;
    out.g5Version = r.u8();
    out.repeats = r.u32();
    out.seed = r.u64();
    out.boardVariation = r.f64();
    out.quorum = r.u32();
    out.maxAttempts = r.u32();
    out.jobs = r.u32();
    out.maxPoints = r.u32();
    out.deadlineSeconds = r.f64();
    std::uint32_t freqs = r.u32();
    if (!r.ok() || freqs > kMaxSpecFreqs)
        return false;
    out.freqsMhz.clear();
    out.freqsMhz.reserve(freqs);
    for (std::uint32_t i = 0; i < freqs; ++i)
        out.freqsMhz.push_back(r.f64());
    out.tag = r.str();
    out.durable = r.u8() != 0;
    return r.done();
}

std::string
encodeAccepted(const Accepted &accepted)
{
    WireWriter w;
    w.u64(accepted.requestId);
    w.str(accepted.token);
    return w.take();
}

bool
decodeAccepted(const std::string &payload, Accepted &out)
{
    WireReader r(payload);
    out.requestId = r.u64();
    out.token = r.str();
    return r.done() && out.token.size() <= kMaxTokenLength;
}

std::string
encodeAttachRequest(const AttachRequest &request)
{
    WireWriter w;
    w.str(request.token);
    return w.take();
}

bool
decodeAttachRequest(const std::string &payload, AttachRequest &out)
{
    WireReader r(payload);
    out.token = r.str();
    return r.done() && !out.token.empty() &&
        out.token.size() <= kMaxTokenLength;
}

std::string
encodeResumeInfo(const ResumeInfo &info)
{
    WireWriter w;
    w.u64(info.requestId);
    w.str(info.token);
    w.u8(info.finished ? 1 : 0);
    w.u32(info.replayPoints);
    return w.take();
}

bool
decodeResumeInfo(const std::string &payload, ResumeInfo &out)
{
    WireReader r(payload);
    out.requestId = r.u64();
    out.token = r.str();
    out.finished = r.u8() != 0;
    out.replayPoints = r.u32();
    return r.done() && out.token.size() <= kMaxTokenLength;
}

std::string
validateCampaignSpec(const CampaignSpec &spec)
{
    if (spec.g5Version != 1 && spec.g5Version != 2)
        return "g5 version must be 1 or 2";
    if (spec.repeats == 0 || spec.repeats > 64)
        return "repeats must be in [1, 64]";
    if (spec.quorum == 0)
        return "quorum must be positive";
    if (spec.maxAttempts < spec.quorum || spec.maxAttempts > 256)
        return "attempt budget must be in [quorum, 256]";
    if (spec.jobs == 0 || spec.jobs > 64)
        return "jobs must be in [1, 64]";
    if (spec.freqsMhz.size() > kMaxSpecFreqs)
        return "too many frequencies";
    for (double freq : spec.freqsMhz) {
        if (!std::isfinite(freq) || freq <= 0.0)
            return "frequencies must be finite and positive";
    }
    if (!std::isfinite(spec.deadlineSeconds) ||
        spec.deadlineSeconds < 0.0) {
        return "deadline must be finite and >= 0";
    }
    if (!std::isfinite(spec.boardVariation))
        return "board variation must be finite";
    if (spec.tag.size() > kMaxSpecTag)
        return "tag too long";
    return "";
}

std::string
encodePointUpdate(const PointUpdate &update)
{
    WireWriter w;
    w.u64(update.requestId);
    w.u32(update.index);
    w.u32(update.total);
    w.str(update.workload);
    w.f64(update.freqMhz);
    w.str(update.statusTag);
    w.f64(update.execSeconds);
    w.f64(update.powerWatts);
    return w.take();
}

bool
decodePointUpdate(const std::string &payload, PointUpdate &out)
{
    WireReader r(payload);
    out.requestId = r.u64();
    out.index = r.u32();
    out.total = r.u32();
    out.workload = r.str();
    out.freqMhz = r.f64();
    out.statusTag = r.str();
    out.execSeconds = r.f64();
    out.powerWatts = r.f64();
    return r.done();
}

std::string
encodeProgress(const ProgressUpdate &update)
{
    WireWriter w;
    w.u64(update.requestId);
    w.u32(update.completed);
    w.u32(update.total);
    return w.take();
}

bool
decodeProgress(const std::string &payload, ProgressUpdate &out)
{
    WireReader r(payload);
    out.requestId = r.u64();
    out.completed = r.u32();
    out.total = r.u32();
    return r.done();
}

std::string
encodeSummary(const Summary &summary)
{
    WireWriter w;
    w.u64(summary.requestId);
    w.u8(static_cast<std::uint8_t>(summary.outcome));
    w.u32(summary.measuredPoints);
    w.u32(summary.resumedPoints);
    w.u32(summary.excludedPoints);
    w.u32(summary.cancelledPoints);
    w.str(summary.datasetCsv);
    w.u32(static_cast<std::uint32_t>(summary.warnings.size()));
    for (const std::string &warning : summary.warnings)
        w.str(warning);
    w.str(summary.error);
    return w.take();
}

bool
decodeSummary(const std::string &payload, Summary &out)
{
    WireReader r(payload);
    out.requestId = r.u64();
    std::uint8_t outcome = r.u8();
    if (outcome > static_cast<std::uint8_t>(RequestOutcome::Error))
        return false;
    out.outcome = static_cast<RequestOutcome>(outcome);
    out.measuredPoints = r.u32();
    out.resumedPoints = r.u32();
    out.excludedPoints = r.u32();
    out.cancelledPoints = r.u32();
    out.datasetCsv = r.str();
    std::uint32_t warnings = r.u32();
    if (!r.ok() || warnings > 1u << 16)
        return false;
    out.warnings.clear();
    out.warnings.reserve(warnings);
    for (std::uint32_t i = 0; i < warnings; ++i)
        out.warnings.push_back(r.str());
    out.error = r.str();
    return r.done();
}

std::string
encodeDaemonStats(const DaemonStats &stats)
{
    WireWriter w;
    w.u64(stats.connectionsTotal);
    w.u64(stats.connectionsOpen);
    w.u64(stats.requestsAccepted);
    w.u64(stats.requestsRejected);
    w.u64(stats.requestsServed);
    w.u64(stats.requestsCancelled);
    w.u64(stats.requestsFailed);
    w.u64(stats.requestsActive);
    w.u64(stats.requestsQueued);
    w.u64(stats.requestsRecovered);
    w.u64(stats.requestsReattached);
    w.u8(stats.draining ? 1 : 0);
    w.u64(stats.storeSize);
    w.u64(stats.storeCapacity);
    w.u64(stats.storeHits);
    w.u64(stats.storeMisses);
    w.u64(stats.storeInsertions);
    w.u64(stats.storeEvictions);
    w.u64(stats.storeSharedHits);
    w.u64(stats.predecodeHits);
    w.u64(stats.predecodeMisses);
    w.u64(stats.predecodeInserts);
    return w.take();
}

bool
decodeDaemonStats(const std::string &payload, DaemonStats &out)
{
    WireReader r(payload);
    out.connectionsTotal = r.u64();
    out.connectionsOpen = r.u64();
    out.requestsAccepted = r.u64();
    out.requestsRejected = r.u64();
    out.requestsServed = r.u64();
    out.requestsCancelled = r.u64();
    out.requestsFailed = r.u64();
    out.requestsActive = r.u64();
    out.requestsQueued = r.u64();
    out.requestsRecovered = r.u64();
    out.requestsReattached = r.u64();
    out.draining = r.u8() != 0;
    out.storeSize = r.u64();
    out.storeCapacity = r.u64();
    out.storeHits = r.u64();
    out.storeMisses = r.u64();
    out.storeInsertions = r.u64();
    out.storeEvictions = r.u64();
    out.storeSharedHits = r.u64();
    out.predecodeHits = r.u64();
    out.predecodeMisses = r.u64();
    out.predecodeInserts = r.u64();
    return r.done();
}

std::string
encodeRejection(const Rejection &rejection)
{
    WireWriter w;
    w.u64(rejection.requestId);
    w.u8(static_cast<std::uint8_t>(rejection.reason));
    w.str(rejection.message);
    return w.take();
}

bool
decodeRejection(const std::string &payload, Rejection &out)
{
    WireReader r(payload);
    out.requestId = r.u64();
    std::uint8_t reason = r.u8();
    if (reason < static_cast<std::uint8_t>(RejectReason::QueueFull) ||
        reason >
            static_cast<std::uint8_t>(RejectReason::UnknownToken)) {
        return false;
    }
    out.reason = static_cast<RejectReason>(reason);
    out.message = r.str();
    return r.done();
}

} // namespace gemstone::serve
