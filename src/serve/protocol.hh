/**
 * @file
 * The hllc-req-v1 wire protocol of the policy-evaluation daemon.
 *
 * Transport framing is a u32 little-endian payload length followed by
 * the payload bytes (frame() writes it, FrameReader reads it); the
 * payload itself is packed with the same bounds-checked Encoder/Decoder
 * primitives the checkpoint container uses (common/serialize.hh), so a
 * truncated, over-declared or bit-flipped frame is rejected with
 * IoError — never a crash or an unbounded allocation. Requests and responses carry a magic, a format
 * version and a caller-chosen request id; the id is the only ordering
 * the daemon guarantees (responses to one connection may interleave
 * across requests, each as one atomic frame).
 *
 * Request types:
 *  - Replay: capture (cached) and replay a Table V mix trace against a
 *    named insertion policy; returns the measured-window counts.
 *  - Batch: replay an inline batch of LLC events against a fresh LLC;
 *    the whole batch is the measured window.
 *  - Stats: returns the daemon's hllc-stats-v1 interval-metrics JSON.
 *  - Ping: liveness probe, empty reply.
 *
 * Every evaluation is a pure function of the request bytes (fresh LLC,
 * seeded capture, no wall-clock input), which is what makes per-request
 * results byte-identical across runs regardless of sharding or timing.
 */

#ifndef HLLC_SERVE_PROTOCOL_HH
#define HLLC_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "hybrid/types.hh"

namespace hllc::serve
{

/** Request payload magic ("HREQ"). */
inline constexpr std::uint32_t requestMagic = 0x48524551u;
/** Response payload magic ("HRSP"). */
inline constexpr std::uint32_t responseMagic = 0x48525350u;
/** Protocol version both sides must speak. */
inline constexpr std::uint8_t protocolVersion = 1;

/** Frames larger than this are rejected before any allocation. */
inline constexpr std::uint32_t defaultMaxFrameBytes = 1u << 20;

enum class RequestType : std::uint8_t
{
    Replay = 1,
    Batch = 2,
    Stats = 3,
    Ping = 4,
};

enum class Status : std::uint8_t
{
    Ok = 0,
    Error = 1,
    Overloaded = 2,
};

/** Replay body: evaluate one (mix, refs, seed) trace under a policy. */
struct ReplayRequest
{
    std::uint8_t mix = 1;          //!< Table V mix number, 1..10
    std::uint64_t refsPerCore = 0; //!< capture length (server-clamped)
    std::uint64_t seed = 0;        //!< capture seed
    std::uint8_t cpth = 0;         //!< fixed CPth 1..64; 0 = default
    std::string policy;            //!< policy name ("CP_SD", ...)
};

/** Batch body: evaluate an inline event stream under a policy. */
struct BatchRequest
{
    std::uint8_t cpth = 0;
    std::uint64_t seed = 0;        //!< echoed; reserved for future use
    std::string policy;
    std::vector<hybrid::LlcEvent> events;
};

struct Request
{
    RequestType type = RequestType::Ping;
    std::uint64_t id = 0;
    ReplayRequest replay; //!< valid when type == Replay
    BatchRequest batch;   //!< valid when type == Batch
};

/** Measured-window counts of one evaluation (Replay or Batch). */
struct EvalResult
{
    std::uint64_t measuredEvents = 0;
    std::uint64_t demandAccesses = 0;
    std::uint64_t demandHits = 0;
    std::uint64_t nvmWrites = 0;
    std::uint64_t nvmBytesWritten = 0;
    double hitRate = 0.0;
    std::string policyName;
};

struct Response
{
    Status status = Status::Ok;
    std::uint64_t id = 0;
    RequestType type = RequestType::Ping; //!< echoed on Ok
    EvalResult result;      //!< Ok + Replay/Batch
    std::string statsJson;  //!< Ok + Stats
    std::string message;    //!< Error
    std::uint32_t shard = 0;       //!< Overloaded
    std::uint64_t queueDepth = 0;  //!< Overloaded: configured bound
};

/** Encode @p request as a payload (no frame prefix). */
std::vector<std::uint8_t> encodeRequest(const Request &request);

/**
 * Parse a request payload. @p max_batch_events bounds the declared
 * Batch event count before any allocation. Throws IoError on any
 * structural problem (bad magic/version/type, short or trailing bytes,
 * out-of-range fields).
 */
Request parseRequest(const std::uint8_t *data, std::size_t size,
                     std::uint32_t max_batch_events);

/** Encode @p response as a payload (no frame prefix). */
std::vector<std::uint8_t> encodeResponse(const Response &response);

/** Parse a response payload; throws IoError on malformed input. */
Response parseResponse(const std::uint8_t *data, std::size_t size);

/** Wrap @p payload in a u32-length-prefixed frame. */
std::vector<std::uint8_t> frame(const std::vector<std::uint8_t> &payload);

/**
 * Incremental reader of the u32-length-prefixed frame stream: receive
 * at most want() bytes into next(), then commit() them, so no read
 * passes the end of a frame. A declared length of zero or beyond the
 * limit throws IoError before any allocation.
 */
class FrameReader
{
  public:
    explicit FrameReader(std::uint32_t max_frame_bytes)
        : maxFrameBytes_(max_frame_bytes)
    {
    }

    /** Where the next received bytes belong. */
    std::uint8_t *next();
    /** How many bytes complete the current header or payload. */
    std::size_t want() const;
    /** Account @p n bytes; true once payload() holds a whole frame. */
    bool commit(std::size_t n);
    /** Whether part of a frame has arrived. */
    bool midFrame() const { return got_ != 0; }
    std::vector<std::uint8_t> &payload() { return payload_; }

  private:
    static constexpr std::size_t headerBytes = 4;

    std::uint32_t maxFrameBytes_;
    std::uint8_t header_[headerBytes] = {};
    std::size_t got_ = 0; //!< bytes of the current frame, header included
    std::vector<std::uint8_t> payload_;
};

} // namespace hllc::serve

#endif // HLLC_SERVE_PROTOCOL_HH
