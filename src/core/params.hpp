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

  /// "loss rate is high" in Table I (leaf drop on history 001/Lesser).
  double high_loss{0.08};

  /// "loss is very high" in Table I (leaf halving on 3,7/Greater).
  double very_high_loss{0.20};

  /// Fraction of children whose loss must sit close to the mean child loss
  /// for an internal node to be labelled congested (eta_similar).
  double eta_similar{0.6};

  /// Band around the mean child loss that counts as "close": the max of this
  /// absolute band and `similar_rel` times the mean. The relative term keeps
  /// heavily congested siblings (e.g. 20% vs 38% loss) classified as sharing
  /// one bottleneck — at high loss rates, absolute spread is large.
  double similar_band{0.02};
  double similar_rel{0.5};

  /// Relative tolerance for the Table-I "BW Equality" comparison of bytes
  /// received in the two preceding intervals.
  double bw_equal_tolerance{0.15};

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
