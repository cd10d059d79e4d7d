#include "sim/shard_executor.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace tsim::sim {

std::size_t ShardExecutor::add_shard(Simulation& shard) {
  shards_.push_back(&shard);
  return shards_.size() - 1;
}

ShardExecutor::Channel& ShardExecutor::connect(std::size_t from, std::size_t to, Time latency) {
  if (from >= shards_.size() || to >= shards_.size()) {
    throw std::invalid_argument{"ShardExecutor::connect: unknown shard index"};
  }
  if (from == to) {
    throw std::invalid_argument{"ShardExecutor::connect: self-loop channel"};
  }
  if (latency <= Time::zero()) {
    throw std::invalid_argument{"ShardExecutor::connect: latency must be positive"};
  }
  channels_.push_back(
      std::unique_ptr<Channel>{new Channel{channels_.size(), from, to, latency}});
  lookahead_ = std::min(lookahead_, latency);
  return *channels_.back();
}

void ShardExecutor::run_until(Time end) {
  if (shards_.empty()) return;

  // One shard: the plain sequential path, bit-for-bit identical to running
  // the Simulation directly (no windows, no barrier, no pool).
  if (shards_.size() == 1) {
    shards_.front()->run_until(end);
    return;
  }

  const std::int64_t end_ns = end.as_nanoseconds();

  // No channels: the shards are fully independent — one window to the end.
  if (channels_.empty()) {
    run_window(end);
    ++windows_;
    return;
  }

  while (cursor_ns_ <= end_ns) {
    // Events with when < bound run this window; run_until is inclusive, so
    // the shards advance to bound - 1ns. The final window runs through `end`
    // itself (bound = end + 1), matching plain run_until semantics.
    const std::int64_t bound_ns =
        std::min(cursor_ns_ + lookahead_.as_nanoseconds(), end_ns + 1);
    run_window(Time::nanoseconds(bound_ns - 1));
    drain_channels(bound_ns);
    cursor_ns_ = bound_ns;
    ++windows_;
  }
}

void ShardExecutor::run_window(Time bound) {
  if (!pool_) {
    const std::size_t threads =
        config_.threads != 0 ? config_.threads : WorkerPool::available_cpus();
    pool_ = std::make_unique<WorkerPool>(std::min(threads, shards_.size()));
  }
  pool_->run(shards_.size(),
             [this, bound](std::size_t shard, std::size_t) { shards_[shard]->run_until(bound); });
}

void ShardExecutor::drain_channels(std::int64_t bound_ns) {
  // Deterministic merge: every pending handoff, ordered by (when, channel id,
  // post sequence). Channel ids and per-channel sequences are stable across
  // runs and thread counts, so the injection order — and therefore the
  // destination scheduler's tie-breaking sequence numbers — is too.
  struct Pending {
    std::int64_t when_ns;
    std::size_t channel;
    std::uint64_t seq;
    std::function<void()>* action;
  };
  std::vector<Pending> pending;
  for (const std::unique_ptr<Channel>& channel : channels_) {
    for (Channel::Message& message : channel->outbox_) {
      const std::int64_t when_ns = message.when.as_nanoseconds();
      if (when_ns < bound_ns) {
        throw std::logic_error{
            "ShardExecutor: channel " + std::to_string(channel->id_) + " posted an action at " +
            message.when.to_string() +
            ", inside the current window — lookahead contract violated"};
      }
      pending.push_back(Pending{when_ns, channel->id_, message.seq, &message.action});
    }
  }
  std::sort(pending.begin(), pending.end(), [](const Pending& a, const Pending& b) {
    if (a.when_ns != b.when_ns) return a.when_ns < b.when_ns;
    if (a.channel != b.channel) return a.channel < b.channel;
    return a.seq < b.seq;
  });
  for (const Pending& entry : pending) {
    Simulation& destination = *shards_[channels_[entry.channel]->to_];
    destination.at(Time::nanoseconds(entry.when_ns), std::move(*entry.action));
    ++delivered_;
  }
  for (const std::unique_ptr<Channel>& channel : channels_) channel->outbox_.clear();
}

std::uint64_t ShardExecutor::executed_events() const {
  std::uint64_t total = 0;
  for (const Simulation* shard : shards_) total += shard->scheduler().executed_events();
  return total;
}

}  // namespace tsim::sim
