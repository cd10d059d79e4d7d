#pragma once

#include "core/units.hpp"
#include "net/packet.hpp"

namespace tsim::traffic {

/// Receives integrated fluid-model deliveries from traffic::FluidEngine.
///
/// In fluid mode no data packets exist: once per integration step the engine
/// walks each group tree and credits every subscribed member with the bytes
/// and (derived) packet counts that arrived at its node during the step, plus
/// the packets lost upstream on its path. transport::ReceiverEndpoint
/// implements this so its report windows — and through them ReceiverAgent and
/// ControllerAgent — consume fluid results through the exact counters the
/// packet path feeds.
class FluidSink {
 public:
  virtual ~FluidSink() = default;

  /// `received`/`lost` partition the packets the source emitted for this
  /// member during the step; `bytes` is the payload of the received share.
  ///
  /// Called from sim::WorkerPool threads: the engine splits wide group walks
  /// into tasks, and sinks on different nodes may be credited at the same
  /// time. An implementation may touch only its own state (no scheduling, no
  /// shared counters, no other sink). Calls for one sink never overlap: a
  /// group's walk visits each node once, and groups are walked one after
  /// another.
  virtual void on_fluid_delivery(net::GroupAddr group, units::Bytes bytes,
                                 units::PacketCount received,
                                 units::PacketCount lost) = 0;
};

}  // namespace tsim::traffic
