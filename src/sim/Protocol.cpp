//===- Protocol.cpp - Per-opcode accelerator protocol tables --------------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "sim/Protocol.h"

#include <iterator>

using namespace axi4mlir;
using namespace axi4mlir::sim;
using namespace axi4mlir::sim::opcodes;
using namespace axi4mlir::sim::protocol;

namespace {

constexpr uint8_t V1 = 1, V2 = 2, V3 = 4, V4 = 8, AnyVersion = 0xF;

// The Table I micro-ISAs: v1 only streams whole tiles, v2 adds split
// loads (input reuse), v3 decoupled compute/receive (output reuse), v4
// runtime tile sizes (paper Sec. IV-C). lookup() scans rows in order, so
// the per-tile opcodes come first.
const Row MatMulRows[] = {
    {MM_SASBCCRC, V1, Fill::AThenB, Compute | Emit},
    {MM_SA, V2 | V3 | V4, Fill::A, 0},
    {MM_SB, V2 | V3 | V4, Fill::B, 0},
    {MM_CC, V3 | V4, Fill::None, Compute},
    {MM_RC, V3 | V4, Fill::None, Emit},
    {MM_SA_CC_RC, V2 | V3 | V4, Fill::A, Compute | Emit},
    {MM_SB_CC_RC, V2 | V3 | V4, Fill::B, Compute | Emit},
    {MM_CC_RC, V2 | V3 | V4, Fill::None, Compute | Emit},
    {MM_CFG, V4, Fill::Cfg, Reconfigure, Rule::TileFitsBuffers, 3,
     {&Config::TileM, &Config::TileK, &Config::TileN}},
    {MM_RESET, AnyVersion, Fill::None, Clear},
};

// Paper Fig. 15a: filter + output stationary, one output slice per
// loaded filter. Per-window opcodes first.
const Row ConvRows[] = {
    {CONV_SICO, AnyVersion, Fill::Window, Compute,
     Rule::WindowMatchesFilter},
    {CONV_SF, AnyVersion, Fill::Filter, NewSlice},
    {CONV_RO, AnyVersion, Fill::None, Emit},
    {CONV_SET_FS, AnyVersion, Fill::Cfg, Reconfigure, Rule::WindowFitsBuffer,
     1, {&Config::FilterSize}},
    {CONV_SET_IC, AnyVersion, Fill::Cfg, Reconfigure,
     Rule::WindowFitsBuffer, 1, {&Config::InputChannels}},
};

/// True unless A x B x C provably exceeds \p Limit. Factors are committed
/// fields or 32-bit wire values, so A x B cannot overflow and the last
/// factor is applied by division.
bool fits(int64_t A, int64_t B, int64_t C, int64_t Limit) {
  if (A == Unknown || B == Unknown || C == Unknown)
    return true;
  return A * B <= Limit / C;
}

} // namespace

const Engine protocol::MatMul = {MatMulRows, std::size(MatMulRows),
                                 Output::Tile};
const Engine protocol::Conv = {ConvRows, std::size(ConvRows), Output::Slice};

bool Config::operator==(const Config &O) const {
  return Version == O.Version && TileM == O.TileM && TileK == O.TileK &&
         TileN == O.TileN && Capacity == O.Capacity &&
         InputChannels == O.InputChannels && FilterSize == O.FilterSize &&
         MaxWindowWords == O.MaxWindowWords && FilterWords == O.FilterWords;
}

std::string protocol::filterMismatch(int64_t WindowWords,
                                     int64_t FilterWords) {
  return "window of " + std::to_string(WindowWords) +
         " words does not match the loaded filter (" +
         std::to_string(FilterWords) + " words)";
}

std::string protocol::reconfigure(const Row &R, Config &C,
                                  const int64_t *Staged) {
  Config Next = C;
  bool Positive = true;
  for (uint8_t I = 0; I < R.NumSets; ++I) {
    int32_t &Value = Next.*R.Sets[I];
    if (Staged[I] == Unknown) {
      Value = Unknown;
      continue;
    }
    // The signed 32-bit value the wire word carries.
    Value = static_cast<int32_t>(static_cast<uint32_t>(Staged[I]));
    Positive = Positive && Value > 0;
  }
  if (R.Check == Rule::TileFitsBuffers &&
      !(Positive && fits(Next.TileM, Next.TileK, 1, Next.Capacity) &&
        fits(Next.TileK, Next.TileN, 1, Next.Capacity) &&
        fits(Next.TileM, Next.TileN, 1, Next.Capacity)))
    return "cfg tile " + std::to_string(Next.TileM) + "x" +
           std::to_string(Next.TileK) + "x" + std::to_string(Next.TileN) +
           " does not fit the internal buffers (capacity " +
           std::to_string(Next.Capacity) + " words per operand)";
  if (R.Check == Rule::WindowFitsBuffer &&
      !(Positive && fits(Next.InputChannels, Next.FilterSize,
                         Next.FilterSize, Next.MaxWindowWords)))
    return "configuration iC=" + std::to_string(Next.InputChannels) +
           " fS=" + std::to_string(Next.FilterSize) +
           " exceeds the window buffer (" +
           std::to_string(Next.MaxWindowWords) + " words)";
  C = Next;
  return {};
}

std::string sim::formatOpcode(uint32_t Opcode) {
  static const char Digits[] = "0123456789abcdef";
  std::string Hex;
  do {
    Hex.insert(Hex.begin(), Digits[Opcode & 0xF]);
    Opcode >>= 4;
  } while (Opcode != 0);
  return "0x" + Hex;
}

std::string protocol::unsupportedMessage(uint32_t Opcode) {
  return "opcode " + formatOpcode(Opcode) +
         " is not supported by this engine version";
}
