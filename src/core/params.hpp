#pragma once

#include "sim/time.hpp"
#include "traffic/layer_spec.hpp"

namespace tsim::core {

/// Tunables of the TopoSense algorithm. Defaults follow the paper where it
/// gives numbers and sensible engineering choices where it does not (each
/// such choice has an ablation bench; see DESIGN.md).
struct Params {
  /// Loss-rate threshold above which a node counts as congested
  /// (p_threshold in the paper).
  double p_threshold{0.02};

  /// Multiplicative inflation applied to a finite link-capacity estimate each
  /// interval ("the estimate is increased every interval by a small amount").
  double capacity_growth{0.02};

  /// A finite capacity estimate is discarded (reset to infinity) after this
  /// many intervals ("the capacity is reset to infinity at periodic
  /// intervals and recomputed").
  int capacity_reset_intervals{25};

  /// Estimate capacities only for links crossed by two or more sessions, as
  /// the paper's stage list prescribes ("Estimate link bandwidths for all
  /// shared links"): estimates exist to arbitrate between sessions. With
  /// false, every lossy link is estimated — the ablation shows this pins
  /// receivers to transient under-estimates on their access links.
  bool estimate_shared_links_only{true};

  /// Per-link deterministic stagger of the reset point, as a fraction of
  /// capacity_reset_intervals. Estimates are usually born together in one
  /// congestion episode; staggering their resets avoids synchronized probe
  /// storms. 0 disables (exact resets, used by unit tests).
  double capacity_reset_jitter{0.5};

  /// Algorithm period: reports are aggregated and suggestions recomputed
  /// once per interval.
  sim::Time interval{sim::Time::seconds(2)};

  /// Randomized backoff applied to a dropped layer so no receiver in the
  /// subtree re-subscribes it immediately ("random back-off interval"). The
  /// paper tunes stability with exactly this knob; a probe that fails costs
  /// several seconds of congestion (loss window + report + interval +
  /// suggestion + IGMP leave), so probes must be spaced well apart.
  sim::Time backoff_min{sim::Time::seconds(30)};
  sim::Time backoff_max{sim::Time::seconds(90)};

  /// The layered encoding in use (shared with sources and receivers).
  traffic::LayerSpec layers{};
};

}  // namespace tsim::core
