#pragma once

#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "net/packet.hpp"

namespace tsim::transport {

/// Per-node packet demultiplexer. A node's single local sink fans out to any
/// number of handlers by packet kind, so a receiver endpoint and a controller
/// agent can share a node (the paper stations the controller at a source
/// node).
class PacketDemux {
 public:
  using Handler = std::function<void(const net::PacketRef&)>;

  PacketDemux() = default;
  // The node's sink holds this demux's address.
  PacketDemux(const PacketDemux&) = delete;
  PacketDemux& operator=(const PacketDemux&) = delete;

  void add_handler(net::PacketKind kind, Handler handler);
  void dispatch(const net::PacketRef& packet) const;

 private:
  // One list in registration order: a node carries a handful of handlers
  // (a receiver's data and suggestion, a controller's reports), so one
  // allocation and a short scan serve them all. Handlers of one kind run in
  // the order they were added.
  std::vector<std::pair<net::PacketKind, Handler>> handlers_;
};

/// Owns one PacketDemux per node and installs it as the node's local sink on
/// first use. Lives as long as the Network it serves.
class DemuxRegistry {
 public:
  explicit DemuxRegistry(net::Network& network) : network_{network} {}

  DemuxRegistry(const DemuxRegistry&) = delete;
  DemuxRegistry& operator=(const DemuxRegistry&) = delete;

  /// Demux for `node`, created and wired on first request.
  PacketDemux& at(net::NodeId node);

 private:
  net::Network& network_;
  // The demuxes by value, in a deque because its elements never move: each
  // node's sink holds its demux's address.
  std::deque<PacketDemux> demuxes_;
  // Dense NodeId-indexed (node ids are small and contiguous); null until the
  // node's demux is first requested.
  std::vector<PacketDemux*> by_node_;
};

}  // namespace tsim::transport
