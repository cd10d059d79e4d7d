#include "traffic/fluid_engine.hpp"

#include <algorithm>

namespace tsim::traffic {

namespace {

/// What one step credits from an exact accumulator: floor(after) -
/// floor(before). Every earlier step credited exactly the floor of the value
/// it left behind, so the totals credited never drift from floor(exact) by
/// more than one unit, however many steps run.
std::uint64_t floor_delta(double before, double after) {
  return static_cast<std::uint64_t>(after) - static_cast<std::uint64_t>(before);
}

}  // namespace

FluidEngine::FluidEngine(sim::Simulation& simulation, net::Network& network,
                         mcast::MulticastRouter& mcast, sim::WorkerPool& pool, Config config)
    : simulation_{simulation},
      network_{network},
      mcast_{mcast},
      pool_{pool},
      config_{config},
      scratch_(pool.workers()) {}

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
  simulation_.after(kStep, [this]() { step(); });
}

void FluidEngine::ensure_capacity() {
  const std::size_t links = network_.link_count();
  if (link_state_.size() < links) {
    link_state_.resize(links);
    // Pre-size the per-step scratch so the hot tree walks never grow it: a
    // touched list holds at most one entry per link, a walk stack at most one
    // frame per tree edge plus the root, and a split span of n links (n >=
    // kSplitLinks) yields ceil(n / kTaskLinks) <= n / kTaskLinks + n /
    // kSplitLinks tasks.
    touched_.reserve(links);
    tasks_.reserve(links / kTaskLinks + links / kSplitLinks + 1);
    for (WorkerScratch& scratch : scratch_) {
      scratch.touched.reserve(links);
      scratch.stack.reserve(links + 1);
    }
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

void FluidEngine::touch(net::LinkId link, WorkerScratch& scratch) {
  LinkState& st = link_state_[link];
  if (st.touched) return;
  st.touched = true;
  // HOTPATH_ALLOW(container-growth: one slot per link into capacity reserved by ensure_capacity)
  scratch.touched.push_back(link);
  const std::uint64_t gap = steps_ - 1 - st.last_step;
  if (gap > 0 && st.last_step > 0) {
    // The link sat idle for `gap` full steps: nothing was offered, so the
    // backlog drained at line rate and any stale loss fraction is over.
    const double drained = network_.link_params(link).bandwidth.bps() *
                           kStep.as_seconds() * static_cast<double>(gap);
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

void FluidEngine::offer_group(const mcast::GroupTree& tree, double rate) {
  WorkerScratch& caller = scratch_[0];
  tasks_.clear();
  caller.stack.push_back({tree.source, rate});
  walk_offered(tree, caller, true);
  pool_.run(tasks_.size(), [this, &tree](std::size_t task, std::size_t worker) {
    const WalkTask& span = tasks_[task];
    WorkerScratch& scratch = scratch_[worker];
    offer_span(tree, span.begin, span.end, span.inflow, scratch);
    walk_offered(tree, scratch, false);
  });
}

void FluidEngine::credit_group(const CreditWalk& walk) {
  WorkerScratch& caller = scratch_[0];
  tasks_.clear();
  caller.stack.push_back({walk.tree->source, walk.source_rate});
  walk_credit(walk, caller, true);
  pool_.run(tasks_.size(), [this, &walk](std::size_t task, std::size_t worker) {
    const WalkTask& span = tasks_[task];
    WorkerScratch& scratch = scratch_[worker];
    credit_span(walk, span.begin, span.end, span.inflow, scratch);
    walk_credit(walk, scratch, false);
  });
}

void FluidEngine::split_span(const mcast::GroupTree::FanSlot& slot, double inflow) {
  const std::uint32_t end = slot.offset + slot.count;
  for (std::uint32_t begin = slot.offset; begin < end; begin += kTaskLinks) {
    // HOTPATH_ALLOW(container-growth: task list bounded by links / kTaskLinks + links / kSplitLinks; capacity reserved by ensure_capacity)
    tasks_.push_back(WalkTask{begin, std::min(begin + kTaskLinks, end), inflow});
  }
}

void FluidEngine::walk_offered(const mcast::GroupTree& tree, WorkerScratch& scratch,
                               bool split) {
  while (!scratch.stack.empty()) {
    const auto [node, inflow] = scratch.stack.back();
    scratch.stack.pop_back();
    if (node >= tree.fan.size()) continue;
    const mcast::GroupTree::FanSlot& slot = tree.fan[node];
    if (split && slot.count >= kSplitLinks) {
      split_span(slot, inflow);
      continue;
    }
    offer_span(tree, slot.offset, slot.offset + slot.count, inflow, scratch);
  }
}

void FluidEngine::offer_span(const mcast::GroupTree& tree, std::uint32_t begin,
                             std::uint32_t end, double inflow, WorkerScratch& scratch) {
  for (std::uint32_t i = begin; i < end; ++i) {
    const net::LinkId link = tree.fan_links[i];
    touch(link, scratch);
    LinkState& st = link_state_[link];
    st.offered += inflow;
    // Pass B must visit exactly this link set, so descend even at rate 0.
    // HOTPATH_ALLOW(container-growth: walk stack bounded by tree edges; capacity reserved by ensure_capacity)
    scratch.stack.push_back({network_.link_params(link).to, inflow * (1.0 - st.loss_prev)});
  }
}

void FluidEngine::credit_cell(Cell& cell, std::uint32_t gid, net::LinkId link,
                              double inflow, double delivered, double packet_size) {
  const double dt_s = kStep.as_seconds();
  const double delivered_before = cell.delivered_acc;
  const double dropped_before = cell.dropped_acc;
  cell.delivered_acc += delivered * dt_s / 8.0;
  cell.dropped_acc += (inflow - delivered) * dt_s / (8.0 * packet_size);
  network_.credit_fluid_link(
      link, gid, units::Bytes{floor_delta(delivered_before, cell.delivered_acc)},
      units::PacketCount{
          floor_delta(delivered_before / packet_size, cell.delivered_acc / packet_size)},
      units::Bytes{floor_delta(dropped_before * packet_size, cell.dropped_acc * packet_size)},
      units::PacketCount{floor_delta(dropped_before, cell.dropped_acc)});
}

void FluidEngine::credit_member(const CreditWalk& walk, net::NodeId node, double rate) {
  if (node >= sinks_by_node_.size() || sinks_by_node_[node].empty()) return;
  const double dt_s = kStep.as_seconds();
  const double packet_size = walk.packet_size;
  MemberCredit& mc = members_[walk.gid][node];
  const MemberCredit before = mc;
  mc.byte_acc += rate * dt_s / 8.0;
  mc.recv_acc += rate * dt_s / (8.0 * packet_size);
  mc.lost_acc += (walk.source_rate - rate) * dt_s / (8.0 * packet_size);
  const units::Bytes d_bytes{floor_delta(before.byte_acc, mc.byte_acc)};
  const units::PacketCount d_recv{floor_delta(before.recv_acc, mc.recv_acc)};
  const units::PacketCount d_lost{floor_delta(before.lost_acc, mc.lost_acc)};
  if (d_bytes.count() == 0 && d_recv.count() == 0 && d_lost.count() == 0) return;
  for (FluidSink* sink : sinks_by_node_[node]) {
    sink->on_fluid_delivery(walk.group, d_bytes, d_recv, d_lost);
  }
}

void FluidEngine::walk_credit(const CreditWalk& walk, WorkerScratch& scratch, bool split) {
  const mcast::GroupTree& tree = *walk.tree;
  while (!scratch.stack.empty()) {
    const auto [node, inflow] = scratch.stack.back();
    scratch.stack.pop_back();
    if (node >= tree.fan.size()) continue;
    const mcast::GroupTree::FanSlot& slot = tree.fan[node];
    if (slot.deliver_locally != 0) credit_member(walk, node, inflow);
    if (split && slot.count >= kSplitLinks) {
      split_span(slot, inflow);
      continue;
    }
    credit_span(walk, slot.offset, slot.offset + slot.count, inflow, scratch);
  }
}

void FluidEngine::credit_span(const CreditWalk& walk, std::uint32_t begin, std::uint32_t end,
                              double inflow, WorkerScratch& scratch) {
  for (std::uint32_t i = begin; i < end; ++i) {
    const net::LinkId link = walk.tree->fan_links[i];
    const double delivered = inflow * (1.0 - link_state_[link].loss_now);
    credit_cell(walk.cells[link], walk.gid, link, inflow, delivered, walk.packet_size);
    // HOTPATH_ALLOW(container-growth: walk stack bounded by tree edges; capacity reserved by ensure_capacity)
    scratch.stack.push_back({network_.link_params(link).to, delivered});
  }
}

template <typename Fn>
void FluidEngine::for_each_touched(const Fn& fn) {
  const std::size_t links = touched_.size();
  if (links < kSplitLinks) {
    for (const net::LinkId link : touched_) fn(link);
    return;
  }
  pool_.run((links + kTaskLinks - 1) / kTaskLinks, [this, &fn, links](std::size_t task,
                                                                       std::size_t) {
    const std::size_t end = std::min(links, (task + 1) * kTaskLinks);
    for (std::size_t i = task * kTaskLinks; i < end; ++i) fn(touched_[i]);
  });
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
  const sim::Time t0 = t1 - kStep;
  ++steps_;

  // Group gids/trees/rates are re-fetched per pass: interning is idempotent
  // and tree() is lazy-clean, so both passes see identical state.
  for (int pass = 0; pass < 2; ++pass) {
    if (pass == 1) {
      // Between the passes: advance every touched link's analytic queue to
      // turn this step's aggregate offered rate into its loss fraction.
      touched_.clear();
      for (WorkerScratch& scratch : scratch_) {
        touched_.insert(touched_.end(), scratch.touched.begin(), scratch.touched.end());
        scratch.touched.clear();
      }
      for_each_touched([this](net::LinkId link) {
        LinkState& st = link_state_[link];
        const units::Bytes limit{
            static_cast<std::uint64_t>(network_.link_hot(link).queue_limit) *
            config_.packet_size_bytes};
        st.loss_now = net::fluid_queue_step(st.queue, units::BitsPerSec{st.offered},
                                            network_.link_params(link).bandwidth, limit,
                                            kStep);
        st.last_step = steps_;
      });
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
          offer_group(*tree, rate);
        } else {
          const std::uint32_t gid = network_.intern_group(group);
          ensure_capacity();
          credit_group(CreditWalk{tree, group, gid, rate,
                                  static_cast<double>(cfg.layers.packet_size_bytes),
                                  cells_[gid].data()});
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
          touch(link, scratch_[0]);
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
  for_each_touched([this](net::LinkId link) {
    LinkState& st = link_state_[link];
    st.loss_prev = st.loss_now;
    st.offered = 0.0;
    st.touched = false;
  });

  // Same lifetime argument as start().  NOLINT(callback-lifetime)
  simulation_.after(kStep, [this]() { step(); });
}

}  // namespace tsim::traffic
