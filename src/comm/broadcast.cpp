#include "comm/broadcast.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "common/logging.hpp"

namespace hadfl::comm {

namespace {

/// One summary line per broadcast call (not one per receiver, which grows
/// with K at fleet scale); the full list stays in BroadcastResult.
void warn_unreachable(const std::vector<DeviceId>& unreachable) {
  if (unreachable.empty()) return;
  constexpr std::size_t kShown = 4;
  std::ostringstream ids;
  for (std::size_t i = 0; i < std::min(kShown, unreachable.size()); ++i) {
    ids << (i == 0 ? "" : ", ") << unreachable[i];
  }
  if (unreachable.size() > kShown) ids << ", ...";
  HADFL_WARN("broadcast: " << unreachable.size()
                           << " device(s) unreachable, skipped (" << ids.str()
                           << ")");
}

}  // namespace

BroadcastResult broadcast_nonblocking(SimTransport& transport, DeviceId src,
                                      const std::vector<DeviceId>& dsts,
                                      std::size_t bytes) {
  BroadcastResult result;
  for (DeviceId dst : dsts) {
    HADFL_CHECK_ARG(dst != src, "broadcast destination equals source");
    try {
      const SimTime arrival = transport.send_nonblocking(src, dst, bytes);
      result.delivered.push_back(dst);
      result.last_arrival = std::max(result.last_arrival, arrival);
    } catch (const CommError&) {
      result.unreachable.push_back(dst);
    }
  }
  warn_unreachable(result.unreachable);
  return result;
}

BroadcastResult broadcast_nonblocking(SimTransport& transport, DeviceId src,
                                      const std::vector<DeviceId>& dsts,
                                      std::size_t bytes, std::size_t threads) {
  SimTransport::FanoutResult fan =
      transport.send_fanout(src, dsts, bytes, threads);
  warn_unreachable(fan.unreachable);
  BroadcastResult result;
  result.delivered = std::move(fan.delivered);
  result.unreachable = std::move(fan.unreachable);
  result.last_arrival = fan.last_arrival;
  return result;
}

}  // namespace hadfl::comm
