#include "comm/compression.hpp"

#include <algorithm>
#include <cmath>

namespace hadfl::comm {

QuantizedState quantize_int8(std::span<const float> state) {
  QuantizedState q;
  q.values.resize(state.size());
  float max_abs = 0.0f;
  for (float v : state) max_abs = std::max(max_abs, std::fabs(v));
  if (max_abs == 0.0f) {
    q.scale = 0.0f;
    return q;  // all zeros already
  }
  q.scale = max_abs / 127.0f;
  for (std::size_t i = 0; i < state.size(); ++i) {
    q.values[i] = static_cast<std::int8_t>(std::clamp(
        static_cast<int>(std::lround(state[i] / q.scale)), -127, 127));
  }
  return q;
}

std::vector<float> dequantize_int8(const QuantizedState& q) {
  std::vector<float> out(q.values.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<float>(q.values[i]) * q.scale;
  }
  return out;
}

}  // namespace hadfl::comm
