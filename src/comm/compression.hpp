// Reference int8 quantizer: each float becomes one byte plus a shared
// per-message scale (4x smaller, bounded elementwise error). The sync path
// encodes through comm/delta_codec.hpp, whose int8 chunk codec is pinned
// bit-identical to this one (tests/test_compression.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace hadfl::comm {

/// A quantized message: int8 payload + the reconstruction scale.
struct QuantizedState {
  std::vector<std::int8_t> values;
  float scale = 0.0f;  ///< dequantized = value * scale

  std::size_t wire_bytes() const {
    return values.size() * sizeof(std::int8_t) + sizeof(float);
  }
};

/// Symmetric uniform quantization to int8 ([-127, 127]); scale is
/// max|x| / 127. An all-zero input quantizes losslessly.
QuantizedState quantize_int8(std::span<const float> state);

/// Reconstructs floats from a quantized message.
std::vector<float> dequantize_int8(const QuantizedState& q);

}  // namespace hadfl::comm
