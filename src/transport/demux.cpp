#include "transport/demux.hpp"

namespace tsim::transport {

void PacketDemux::add_handler(net::PacketKind kind, Handler handler) {
  // Room for a receiver endpoint's pair (data and suggestion) in one
  // allocation.
  if (handlers_.empty()) handlers_.reserve(2);
  handlers_.emplace_back(kind, std::move(handler));
}

void PacketDemux::dispatch(const net::PacketRef& packet) const {
  const net::PacketKind kind = packet->kind;
  for (const auto& [handler_kind, handler] : handlers_) {
    if (handler_kind == kind) handler(packet);
  }
}

PacketDemux& DemuxRegistry::at(net::NodeId node) {
  if (node >= by_node_.size()) by_node_.resize(node + 1, nullptr);
  if (by_node_[node] == nullptr) {
    PacketDemux* demux = &demuxes_.emplace_back();
    by_node_[node] = demux;
    network_.set_local_sink(node, [demux](const net::PacketRef& p) { demux->dispatch(p); });
  }
  return *by_node_[node];
}

}  // namespace tsim::transport
