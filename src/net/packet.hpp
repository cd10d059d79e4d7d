#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace tsim::net {

using NodeId = std::uint32_t;
using LinkId = std::uint32_t;
using SessionId = std::uint16_t;
using LayerId = std::uint8_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);
inline constexpr LinkId kInvalidLink = static_cast<LinkId>(-1);

/// Dense per-Network index of a multicast group for flat stats arrays; see
/// Network::intern_group. Stamped into packets at send_multicast so links
/// never hash a GroupAddr on the per-packet path.
inline constexpr std::uint32_t kInvalidGroupStatsId = static_cast<std::uint32_t>(-1);

/// A multicast group address. The paper's layered model sends every layer of
/// a session on its own multicast address; receivers subscribe cumulatively.
struct GroupAddr {
  SessionId session{0};
  LayerId layer{0};

  [[nodiscard]] friend bool operator==(GroupAddr, GroupAddr) = default;
  [[nodiscard]] friend auto operator<=>(GroupAddr, GroupAddr) = default;
  /// Dense index usable as an array/hash key.
  [[nodiscard]] std::uint32_t key() const {
    return (static_cast<std::uint32_t>(session) << 8) | layer;
  }
};

enum class PacketKind : std::uint8_t {
  kData,            ///< multicast media payload
  kReport,          ///< receiver -> controller loss/byte report (unicast)
  kSuggestion,      ///< controller -> receiver subscription suggestion (unicast)
  kMtraceQuery,     ///< discovery tool -> receiver path query (unicast)
  kMtraceResponse,  ///< receiver -> discovery tool path response (unicast)
  kTcpData,         ///< simplified TCP segment (unicast cross-traffic)
  kTcpAck,          ///< simplified TCP cumulative ACK
  kSummary,         ///< inter-domain controller summary (unicast)
};

/// Base class for control-plane payloads (defined by higher layers). Packets
/// share payloads by pointer so multicast replication stays O(1) per copy.
struct ControlPayload {
  virtual ~ControlPayload() = default;
};

/// A simulated packet's fields. Callers build one of these per *send*; inside
/// the network it travels behind a PacketRef flyweight, so replication down a
/// multicast tree and the per-hop timer captures copy one pointer, not the
/// struct (and never touch the control shared_ptr's refcount).
struct Packet {
  std::uint64_t uid{0};
  PacketKind kind{PacketKind::kData};
  std::uint32_t size_bytes{0};
  NodeId src{kInvalidNode};
  NodeId dst{kInvalidNode};  ///< unicast destination; kInvalidNode for multicast
  bool multicast{false};
  GroupAddr group{};         ///< valid when multicast
  std::uint32_t seq{0};      ///< per-(session,layer) sequence number
  sim::Time sent_at{};
  std::shared_ptr<const ControlPayload> control{};
  /// Dense stats index of `group` (Network::intern_group), stamped by
  /// send_multicast; kInvalidGroupStatsId until then.
  std::uint32_t group_stats_id{kInvalidGroupStatsId};
};

/// Shared, immutable in-flight packet: one refcounted copy of the fields per
/// send, handed around by 8-byte PacketRef values. The refcount is plain (not
/// atomic) because a simulation is single-threaded by design — parallel
/// benches run one whole simulation per thread, and nodes come from a
/// thread_local pool, so a packet's life never crosses threads.
class PacketRef {
 public:
  PacketRef() = default;

  /// Moves `fields` into pooled shared storage with refcount 1.
  static PacketRef make(Packet&& fields) {
    Node* node = acquire_node();
    node->packet = std::move(fields);
    node->refs = 1;
    return PacketRef{node};
  }

  PacketRef(const PacketRef& other) : node_{other.node_} {
    if (node_ != nullptr) ++node_->refs;
  }
  PacketRef(PacketRef&& other) noexcept : node_{std::exchange(other.node_, nullptr)} {}
  PacketRef& operator=(const PacketRef& other) {
    PacketRef copy{other};
    std::swap(node_, copy.node_);
    return *this;
  }
  PacketRef& operator=(PacketRef&& other) noexcept {
    std::swap(node_, other.node_);
    return *this;
  }
  ~PacketRef() { release(); }

  [[nodiscard]] explicit operator bool() const { return node_ != nullptr; }
  [[nodiscard]] const Packet& operator*() const { return node_->packet; }
  [[nodiscard]] const Packet* operator->() const { return &node_->packet; }

 private:
  struct Node {
    Packet packet;
    std::uint32_t refs{0};
  };

  explicit PacketRef(Node* node) : node_{node} {}

  void release() {
    if (node_ == nullptr || --node_->refs != 0) return;
    node_->packet.control.reset();  // drop the payload eagerly, keep the node
    pool().push_back(node_);
    node_ = nullptr;
  }

  static std::vector<Node*>& pool() {
    struct Pool {
      std::vector<Node*> free_nodes;
      ~Pool() {
        for (Node* node : free_nodes) delete node;
      }
    };
    thread_local Pool pool;
    return pool.free_nodes;
  }

  static Node* acquire_node() {
    auto& free_nodes = pool();
    if (free_nodes.empty()) return new Node{};
    Node* node = free_nodes.back();
    free_nodes.pop_back();
    return node;
  }

  Node* node_{nullptr};
};

}  // namespace tsim::net

template <>
struct std::hash<tsim::net::GroupAddr> {
  std::size_t operator()(tsim::net::GroupAddr g) const noexcept {
    return std::hash<std::uint32_t>{}(g.key());
  }
};
