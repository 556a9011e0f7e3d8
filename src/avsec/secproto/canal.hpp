// CAN Adaptation Layer (CANAL) — AAL5-inspired segmentation and reassembly
// that carries full Ethernet frames (including MACsec-protected ones) over
// CAN FD or CAN XL, enabling end-to-end Ethernet security associations that
// terminate on CAN endpoints (paper scenario S3, Fig. 6).
//
// Segment layout (inside each CAN payload):
//   [ flags|seq (1) | sdu id (1) | data ... ]
// flags: bit7 = first segment, bit6 = last segment; seq = counter mod 64.
// The final segment ends with an AAL5-style trailer in its *last* bytes:
//   [ zero padding | sdu length (2) | CRC-32 over the whole SDU (4) ]
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "avsec/core/bytes.hpp"
#include "avsec/netsim/can.hpp"
#include "avsec/netsim/ethernet.hpp"

namespace avsec::secproto {

using core::Bytes;
using core::BytesView;

inline constexpr std::size_t kCanalHeaderLen = 2;
inline constexpr std::size_t kCanalTrailerLen = 6;

/// Splits an SDU into CANAL segments of at most `capacity` payload bytes.
class CanalSegmenter {
 public:
  explicit CanalSegmenter(std::size_t capacity);

  std::vector<Bytes> segment(std::uint8_t sdu_id, BytesView sdu) const;

  std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_;
};

struct CanalReassemblyStats {
  std::uint64_t sdus_completed = 0;
  std::uint64_t crc_errors = 0;
  std::uint64_t sequence_errors = 0;
  std::uint64_t orphan_segments = 0;
};

/// Reassembles segments per (source, sdu id) context.
class CanalReassembler {
 public:
  /// Feeds one segment from `source`; returns a completed SDU when the last
  /// segment arrives and the CRC checks out.
  std::optional<Bytes> feed(int source, BytesView segment);

  const CanalReassemblyStats& stats() const { return stats_; }

 private:
  struct Context {
    Bytes data;
    std::uint8_t next_seq = 0;
    bool active = false;
  };
  std::map<std::pair<int, std::uint8_t>, Context> contexts_;
  CanalReassemblyStats stats_;
};

/// Ethernet frame <-> SDU byte serialization for CANAL transport.
Bytes canal_serialize_eth(const netsim::EthFrame& frame);
std::optional<netsim::EthFrame> canal_parse_eth(BytesView sdu);

/// Binds CANAL to a CAN bus node: sends/receives whole Ethernet frames.
class CanalPort {
 public:
  using EthCallback =
      std::function<void(int src_node, const netsim::EthFrame&, core::SimTime)>;

  /// Attaches to bus node `node`; CANAL frames use `can_id` for arbitration
  /// and `protocol` for framing (FD or XL).
  CanalPort(netsim::CanBus& bus, int node, std::uint32_t can_id,
            netsim::CanProtocol protocol);

  void set_on_eth(EthCallback cb) { on_eth_ = std::move(cb); }

  /// Segments and queues an Ethernet frame.
  void send_eth(const netsim::EthFrame& frame);

  std::uint64_t segments_sent() const { return segments_sent_; }

 private:
  void on_can(int src, const netsim::CanFrame& f, core::SimTime now);

  netsim::CanBus& bus_;
  int node_;
  std::uint32_t can_id_;
  netsim::CanProtocol protocol_;
  CanalSegmenter segmenter_;
  CanalReassembler reassembler_;
  EthCallback on_eth_;
  std::uint8_t next_sdu_id_ = 0;
  std::uint64_t segments_sent_ = 0;
};

}  // namespace avsec::secproto
