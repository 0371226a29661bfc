// A fixed reference loop that gauges how fast this host runs right now.
//
// A shared host changes speed by tens of percent over seconds to
// minutes (a busy hyperthread sibling, turbo bins, cache contention),
// and a slow spell that lasts a whole run moves every wall-clock median
// with it. The reference loop is the benchmark's own code, independent
// of the library under test, with the simulator's hot-path mix: an
// event-queue style binary heap and dBm -> mW conversions. It runs
// between replications, outside every timed interval, and each timing
// is scaled by nominal_reference_s / (the mean loop time around it):
// seconds on a host that runs the loop in nominal_reference_s. A slow
// spell stretches the loop and the work alike and cancels; a change to
// the library moves only the work.
#pragma once

namespace perfbench {

/// Runs the reference loop once and returns its wall time in seconds.
/// The work is fixed: the same instructions and data on every call.
double reference_loop_s();

/// The reference loop's wall time on the nominal host: roughly what a
/// 2.0 GHz Xeon vCPU takes when nothing else contends for its core.
inline constexpr double nominal_reference_s = 0.005;

}  // namespace perfbench
