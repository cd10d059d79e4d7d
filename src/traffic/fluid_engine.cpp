#include "traffic/fluid_engine.hpp"

#include <algorithm>
#include <stdexcept>

namespace tsim::traffic {

FluidEngine::FluidEngine(sim::Simulation& simulation, net::Network& network,
                         mcast::MulticastRouter& mcast, Config config)
    : simulation_{simulation}, network_{network}, mcast_{mcast}, config_{config} {
  const std::int64_t step_ns = config_.step.as_nanoseconds();
  if (step_ns <= 0 || 1'000'000'000 % step_ns != 0) {
    throw std::invalid_argument("FluidEngine: step must divide one second");
  }
}

void FluidEngine::add_source(FluidSource* source) { sources_.push_back(source); }

void FluidEngine::register_sink(net::NodeId node, FluidSink* sink) {
  if (sinks_by_node_.size() <= node) sinks_by_node_.resize(node + 1);
  sinks_by_node_[node].push_back(sink);
}

void FluidEngine::add_background_flow(net::NodeId src, net::NodeId dst,
                                      units::BitsPerSec rate, sim::Time start,
                                      sim::Time stop) {
  BackgroundFlow flow;
  flow.src = src;
  flow.dst = dst;
  flow.rate = rate;
  flow.start = start;
  flow.stop = stop;
  background_.push_back(std::move(flow));
}

void FluidEngine::start() {
  // Engine and Simulation share the Scenario's lifetime; no events run once
  // teardown begins.  NOLINT(callback-lifetime)
  simulation_.after(config_.step, [this]() { step(); });
}

void FluidEngine::ensure_capacity() {
  if (link_state_.size() < network_.link_count()) {
    link_state_.resize(network_.link_count());
    // Pre-size the per-step scratch so the hot tree walks never grow it:
    // touched_ holds at most one entry per link, and the walk stack's
    // worst-case depth is one frame per tree edge (again bounded by links).
    touched_.reserve(link_state_.size());
    stack_.reserve(link_state_.size() + 1);
  }
  const std::uint32_t groups = network_.group_stats_count();
  if (cells_.size() < groups) {
    cells_.resize(groups);
    members_.resize(groups);
  }
  // Link and node counts only grow, so once a row is wide enough these are
  // size checks.
  for (auto& row : cells_) row.resize(link_state_.size());
  for (auto& row : members_) row.resize(network_.node_count());
}

void FluidEngine::touch(net::LinkId link) {
  LinkState& st = link_state_[link];
  if (st.touched) return;
  st.touched = true;
  // HOTPATH_ALLOW(container-growth: one slot per link into capacity reserved by ensure_capacity)
  touched_.push_back(link);
  const std::uint64_t gap = steps_ - 1 - st.last_step;
  if (gap > 0 && st.last_step > 0) {
    // The link sat idle for `gap` full steps: nothing was offered, so the
    // backlog drained at line rate and any stale loss fraction is over.
    const double drained = network_.link_params(link).bandwidth.bps() *
                           config_.step.as_seconds() * static_cast<double>(gap);
    st.queue.backlog_bits =
        st.queue.backlog_bits > drained ? st.queue.backlog_bits - drained : 0.0;
    st.loss_prev = 0.0;
  }
}

double FluidEngine::effective_rate(FluidSource& source, net::LayerId layer, sim::Time t0,
                                   sim::Time t1) {
  const auto& cfg = source.config();
  const sim::Time lo = std::max(t0, cfg.start);
  const sim::Time hi = std::min(t1, cfg.stop);
  if (hi <= lo) return 0.0;
  const double overlap = (hi - lo) / (t1 - t0);
  return source.layer_rate(layer, lo).bps() * overlap;
}

void FluidEngine::walk_offered(const mcast::GroupTree& tree, double rate) {
  stack_.clear();
  // HOTPATH_ALLOW(container-growth: walk stack bounded by tree edges; capacity reserved by ensure_capacity)
  stack_.push_back({tree.source, rate});
  while (!stack_.empty()) {
    const auto [node, inflow] = stack_.back();
    stack_.pop_back();
    if (node >= tree.fan.size()) continue;
    const mcast::GroupTree::FanSlot& slot = tree.fan[node];
    for (std::uint32_t i = 0; i < slot.count; ++i) {
      const net::LinkId link = tree.fan_links[slot.offset + i];
      touch(link);
      LinkState& st = link_state_[link];
      st.offered += inflow;
      // Pass B must visit exactly this link set, so descend even at rate 0.
      // HOTPATH_ALLOW(container-growth: walk stack bounded by tree edges; capacity reserved by ensure_capacity)
      stack_.push_back({network_.link_params(link).to, inflow * (1.0 - st.loss_prev)});
    }
  }
}

void FluidEngine::credit_cell(Cell& cell, std::uint32_t gid, net::LinkId link,
                              double inflow, double delivered, double packet_size) {
  const double dt_s = config_.step.as_seconds();
  cell.delivered_acc += delivered * dt_s / 8.0;
  cell.dropped_acc += (inflow - delivered) * dt_s / (8.0 * packet_size);
  const auto del_bytes = static_cast<std::uint64_t>(cell.delivered_acc);
  const auto del_packets = static_cast<std::uint64_t>(cell.delivered_acc / packet_size);
  const auto drop_packets = static_cast<std::uint64_t>(cell.dropped_acc);
  const auto drop_bytes = static_cast<std::uint64_t>(cell.dropped_acc * packet_size);
  network_.credit_fluid_link(
      link, gid, units::Bytes{del_bytes - cell.delivered_bytes_credited},
      units::PacketCount{del_packets - cell.delivered_packets_credited},
      units::Bytes{drop_bytes - cell.dropped_bytes_credited},
      units::PacketCount{drop_packets - cell.dropped_packets_credited});
  cell.delivered_bytes_credited = del_bytes;
  cell.delivered_packets_credited = del_packets;
  cell.dropped_bytes_credited = drop_bytes;
  cell.dropped_packets_credited = drop_packets;
}

void FluidEngine::credit_member(net::GroupAddr group, std::uint32_t gid, net::NodeId node,
                                double rate, double source_rate, double packet_size) {
  if (node >= sinks_by_node_.size() || sinks_by_node_[node].empty()) return;
  const double dt_s = config_.step.as_seconds();
  MemberCredit& mc = members_[gid][node];
  mc.byte_acc += rate * dt_s / 8.0;
  mc.recv_acc += rate * dt_s / (8.0 * packet_size);
  mc.lost_acc += (source_rate - rate) * dt_s / (8.0 * packet_size);
  const auto bytes = static_cast<std::uint64_t>(mc.byte_acc);
  const auto recv = static_cast<std::uint64_t>(mc.recv_acc);
  const auto lost = static_cast<std::uint64_t>(mc.lost_acc);
  const units::Bytes d_bytes{bytes - mc.bytes_credited};
  const units::PacketCount d_recv{recv - mc.recv_credited};
  const units::PacketCount d_lost{lost - mc.lost_credited};
  mc.bytes_credited = bytes;
  mc.recv_credited = recv;
  mc.lost_credited = lost;
  if (d_bytes.count() == 0 && d_recv.count() == 0 && d_lost.count() == 0) return;
  for (FluidSink* sink : sinks_by_node_[node]) {
    sink->on_fluid_delivery(group, d_bytes, d_recv, d_lost);
  }
}

void FluidEngine::walk_credit(const mcast::GroupTree& tree, net::GroupAddr group,
                              std::uint32_t gid, double rate, double source_packet_size) {
  auto& cells = cells_[gid];
  stack_.clear();
  // HOTPATH_ALLOW(container-growth: walk stack bounded by tree edges; capacity reserved by ensure_capacity)
  stack_.push_back({tree.source, rate});
  while (!stack_.empty()) {
    const auto [node, inflow] = stack_.back();
    stack_.pop_back();
    if (node >= tree.fan.size()) continue;
    const mcast::GroupTree::FanSlot& slot = tree.fan[node];
    if (slot.deliver_locally != 0) {
      credit_member(group, gid, node, inflow, rate, source_packet_size);
    }
    for (std::uint32_t i = 0; i < slot.count; ++i) {
      const net::LinkId link = tree.fan_links[slot.offset + i];
      const double delivered = inflow * (1.0 - link_state_[link].loss_now);
      credit_cell(cells[link], gid, link, inflow, delivered, source_packet_size);
      // HOTPATH_ALLOW(container-growth: walk stack bounded by tree edges; capacity reserved by ensure_capacity)
      stack_.push_back({network_.link_params(link).to, delivered});
    }
  }
}

void FluidEngine::resolve_background(BackgroundFlow& flow) {
  flow.resolved = true;
  const std::vector<net::NodeId> nodes = network_.routes().path(flow.src, flow.dst);
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    for (const net::LinkId link : network_.links_between(nodes[i], nodes[i + 1])) {
      if (network_.link(link).from() == nodes[i]) {
        flow.path_links.push_back(link);
        break;
      }
    }
  }
  flow.cells.resize(flow.path_links.size());
}

void FluidEngine::step() {
  const sim::Time t1 = simulation_.now();
  const sim::Time t0 = t1 - config_.step;
  ++steps_;
  touched_.clear();

  // Group gids/trees/rates are re-fetched per pass: interning is idempotent
  // and tree() is lazy-clean, so both passes see identical state.
  for (int pass = 0; pass < 2; ++pass) {
    if (pass == 1) {
      // Between the passes: advance every touched link's analytic queue to
      // turn this step's aggregate offered rate into its loss fraction.
      for (const net::LinkId link : touched_) {
        LinkState& st = link_state_[link];
        const units::Bytes limit{
            static_cast<std::uint64_t>(network_.link_hot(link).queue_limit) *
            config_.packet_size_bytes};
        st.loss_now = net::fluid_queue_step(st.queue, units::BitsPerSec{st.offered},
                                            network_.link_params(link).bandwidth, limit,
                                            config_.step);
        st.last_step = steps_;
      }
    }
    for (FluidSource* source : sources_) {
      const auto& cfg = source->config();
      for (int l = 1; l <= cfg.layers.num_layers; ++l) {
        const auto layer = static_cast<net::LayerId>(l);
        const double rate = effective_rate(*source, layer, t0, t1);
        const net::GroupAddr group{cfg.session, layer};
        const mcast::GroupTree* tree = mcast_.tree(group);
        if (tree == nullptr || tree->source == net::kInvalidNode) continue;
        if (pass == 0) {
          ensure_capacity();  // tree() may have interned nothing, but joins did
          walk_offered(*tree, rate);
        } else {
          const std::uint32_t gid = network_.intern_group(group);
          ensure_capacity();
          walk_credit(*tree, group, gid, rate,
                      static_cast<double>(cfg.layers.packet_size_bytes));
        }
      }
    }
    for (BackgroundFlow& flow : background_) {
      if (!flow.resolved) resolve_background(flow);
      const sim::Time lo = std::max(t0, flow.start);
      const sim::Time hi = std::min(t1, flow.stop);
      if (hi <= lo) continue;
      double rate = flow.rate.bps() * ((hi - lo) / (t1 - t0));
      ensure_capacity();
      for (std::size_t i = 0; i < flow.path_links.size(); ++i) {
        const net::LinkId link = flow.path_links[i];
        if (pass == 0) {
          touch(link);
          LinkState& st = link_state_[link];
          st.offered += rate;
          rate *= 1.0 - st.loss_prev;
        } else {
          const double delivered = rate * (1.0 - link_state_[link].loss_now);
          credit_cell(flow.cells[i], net::kInvalidGroupStatsId, link, rate, delivered,
                      static_cast<double>(config_.packet_size_bytes));
          rate = delivered;
        }
      }
    }
  }

  // Roll this step's loss into next step's pass-A attenuation.
  for (const net::LinkId link : touched_) {
    LinkState& st = link_state_[link];
    st.loss_prev = st.loss_now;
    st.offered = 0.0;
    st.touched = false;
  }

  // Same lifetime argument as start().  NOLINT(callback-lifetime)
  simulation_.after(config_.step, [this]() { step(); });
}

}  // namespace tsim::traffic
