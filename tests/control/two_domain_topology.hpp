// Shared by the domain manager tests and the audited multi-domain scenario.
#pragma once

namespace tsim::scenarios {

/// Two child domains hanging off a core; every receiver lives in a child.
inline constexpr const char* kTwoDomainTopology = R"(
node src
node core
node d1
node d1r1
node d1r2
node d2
node d2r1
link src core 10Mbps 20ms
link core d1 2Mbps 50ms
link d1 d1r1 1Mbps 10ms
link d1 d1r2 1Mbps 10ms
link core d2 2Mbps 50ms
link d2 d2r1 1Mbps 10ms
source 0 src
receiver d1r1 0
receiver d1r2 0
receiver d2r1 0
controller core
domain one d1 d1r1 d1r2
domain two d2 d2r1
)";

}  // namespace tsim::scenarios
