/**
 * @file
 * Typed request/response surface of the fleet authentication service,
 * plus its wire codec.
 *
 * External traffic consults the authority through five request kinds
 * (Enroll, Verify, QuarantineStatus, Reenroll, FleetSummary). A
 * request stream is persisted and replayed as a sequence of CRC
 * frames with the same framing discipline as the store's shard
 * images: a fixed header `[magic|version][bodyLen][fnv1a(body)]`
 * followed by the body, so a single corrupted byte damages exactly
 * one frame and the decoder can say *which* frame and *why* instead
 * of accepting junk. The codec is strict: a frame either decodes to
 * exactly the bytes that were encoded or is rejected with a
 * diagnosable ParseStatus — there is no resynchronization, because a
 * replayed stream is evidence, not best-effort telemetry.
 *
 * Shared by FleetService (the store-backed ChannelScheduler front
 * end) and MegaFleet (the million-channel synthetic fleet), so both
 * answer the same protocol.
 */

#ifndef DIVOT_SERVICE_REQUEST_HH
#define DIVOT_SERVICE_REQUEST_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace divot::service {

/** What a client can ask the authority. */
enum class RequestKind : uint8_t
{
    Enroll = 0,       //!< persist the channel's current enrollment
    Verify,           //!< probe the channel and report its verdict
    QuarantineStatus, //!< snapshot lifecycle state without probing
    Reenroll,         //!< recalibrate + persist (lifts a fence)
    FleetSummary      //!< fused fleet verdict after this epoch
};

/** Number of RequestKind values (telemetry table size). */
constexpr std::size_t kRequestKinds = 5;

/** @return stable lower-case kind name ("enroll", ...). */
const char *requestKindName(RequestKind kind);

/** How the authority answered. */
enum class ResponseStatus : uint8_t
{
    Ok = 0,   //!< request served; payload fields are valid
    Busy,     //!< admission queue full — retry later
    Fenced,   //!< channel is quarantined/pending re-enrollment
    Unknown,  //!< no such channel
    Rejected  //!< request was admissible but the operation failed
              //!< (e.g. persist fault)
};

/** Number of ResponseStatus values (telemetry table size). */
constexpr std::size_t kResponseStatuses = 5;

/** @return stable lower-case status name ("ok", "busy", ...). */
const char *responseStatusName(ResponseStatus status);

/** One client request. `channel` is empty for FleetSummary. */
struct ServiceRequest
{
    uint64_t id = 0; //!< client correlation id, echoed in the response
    RequestKind kind = RequestKind::Verify;
    std::string channel;
};

/**
 * One response. Which payload fields are meaningful depends on
 * (kind, status); everything else is zero so encoded frames are a
 * pure function of the served request.
 */
struct ServiceResponse
{
    uint64_t id = 0;       //!< echoes ServiceRequest::id
    RequestKind kind = RequestKind::Verify;
    ResponseStatus status = ResponseStatus::Ok;
    uint64_t tick = 0;     //!< fleet tick the response was emitted on
    std::string channel;

    uint64_t state = 0;      //!< AuthState ordinal of the channel
    uint64_t phase = 0;      //!< ChannelPhase ordinal
    uint64_t flags = 0;      //!< kResponseAuthenticated / ...Tamper /
                             //!< ...Trusted bits
    double similarity = 0.0; //!< probe (Verify) or fused (Summary)
    uint64_t generation = 0; //!< enrollment generation after
                             //!< Enroll/Reenroll
    uint64_t channels = 0;   //!< FleetSummary: fleet size
    uint64_t fenced = 0;     //!< FleetSummary: pending-reenroll count
    uint64_t quarantined = 0; //!< FleetSummary: quarantined count
};

/** ServiceResponse::flags bits. */
enum ResponseFlag : uint64_t
{
    kResponseAuthenticated = 1u << 0, //!< probe/fusion authenticated
    kResponseTamper = 1u << 1,        //!< tamper alarm raised
    kResponseTrusted = 1u << 2        //!< fused bus-trusted verdict
};

/** Frame constants ("DIVQ", version 1, 24-byte header like the
 *  store's bank header). */
constexpr uint32_t kServiceMagic = 0x44495651; // "DIVQ"
constexpr uint32_t kServiceVersion = 1;
constexpr std::size_t kServiceFrameHeader = 24;

/** Why a frame failed to decode. */
enum class ParseStatus : uint8_t
{
    Ok = 0,
    Truncated,  //!< fewer bytes than the header/body promises
    BadMagic,   //!< frame does not start with kServiceMagic
    BadVersion, //!< unknown codec version
    BadLength,  //!< body length is absurd (overflow guard tripped)
    BadChecksum,//!< body bytes fail their FNV-1a
    BadBody     //!< checksum fine but the body does not parse (bad
                //!< enum ordinal, short/overlong field stream)
};

/** @return stable status name ("ok", "truncated", ...). */
const char *parseStatusName(ParseStatus status);

/** Outcome of decoding one frame. */
struct FrameParse
{
    ParseStatus status = ParseStatus::Ok;
    std::size_t consumed = 0; //!< whole frame size when Ok, else 0
    std::string detail;       //!< diagnosable cause ("frame body fails
                              //!< checksum", ...)

    bool ok() const { return status == ParseStatus::Ok; }
};

/** @name Frame writers — append one CRC frame to a stream. */
///@{
void appendRequestFrame(std::vector<char> &stream,
                        const ServiceRequest &request);
void appendResponseFrame(std::vector<char> &stream,
                         const ServiceResponse &response);
///@}

/** @name Frame readers — decode one frame from `data[0..n)`. Strict:
 *  the body must consume exactly bodyLen bytes and every enum
 *  ordinal must be in range. `out` is untouched unless Ok. */
///@{
FrameParse decodeRequestFrame(const char *data, std::size_t n,
                              ServiceRequest &out);
FrameParse decodeResponseFrame(const char *data, std::size_t n,
                               ServiceResponse &out);
///@}

/** Outcome of decoding a whole stream (e.g. a replay file). */
struct StreamDecode
{
    std::size_t frames = 0; //!< frames decoded before stopping
    std::size_t offset = 0; //!< byte offset decoding stopped at
    FrameParse last;        //!< Ok when the stream ended cleanly

    bool ok() const { return last.ok(); }
};

/**
 * Decode a stream of request frames until the bytes end or a frame
 * fails. Frames already decoded stay in `out` — a damaged byte never
 * un-accepts the intact prefix, and never yields a request that was
 * not encoded.
 */
StreamDecode decodeRequestStream(const std::vector<char> &bytes,
                                 std::vector<ServiceRequest> &out);

/** Response-stream variant of decodeRequestStream. */
StreamDecode decodeResponseStream(const std::vector<char> &bytes,
                                  std::vector<ServiceResponse> &out);

/**
 * Fold one response into a chained digest (FNV-1a over its encoded
 * frame). Two services answered identically iff their digests match —
 * the bit-identity currency of the thread/lane gates.
 */
uint64_t foldResponseDigest(uint64_t digest,
                            const ServiceResponse &response);

/** Deterministic admission/emission totals of a request front end
 *  (kept by the RequestLedger both front ends share). */
struct ServiceStats
{
    uint64_t submitted = 0; //!< submit() calls
    uint64_t admitted = 0;  //!< entered the service
    uint64_t rejectedBusy = 0;
    uint64_t rejectedUnknown = 0;
    uint64_t responses = 0; //!< responses emitted (incl. rejections)
    uint64_t parseErrors = 0; //!< replayed frames that failed to parse
};

} // namespace divot::service

#endif // DIVOT_SERVICE_REQUEST_HH
