//===- ConvAccelerator.h - Conv2D accelerator (Sec. IV-D) -------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Behavioural model of the paper's convolution accelerator (Fig. 15):
/// filter + output stationary, computing one output slice (all elements of
/// one output channel) per iteration. Runtime-configurable input-channel
/// count and square filter size via the `rst` opcode sequence:
///
///   SET_FS, fH, SET_IC, iC        (configuration)
///   SF, <iC*fH*fW filter words>   (load the filter of one output channel)
///   SICO, <iC*fH*fW input words>  (one window -> one output value)
///   RO                            (emit all accumulated output values)
///
/// The protocol is the protocol::Conv table; filter and window bursts
/// land directly in the internal buffers.
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_SIM_CONVACCELERATOR_H
#define AXI4MLIR_SIM_CONVACCELERATOR_H

#include "sim/AcceleratorModel.h"

namespace axi4mlir {
namespace sim {

/// Behavioural model of the Conv2D accelerator.
class ConvAccelerator : public AcceleratorModel {
public:
  /// Window-buffer capacity of the default engine build (256 channels of
  /// 7x7 filters). The static protocol model uses the same bound.
  static constexpr int64_t DefaultMaxWindowWords = 256 * 7 * 7;

  ConvAccelerator(ElemKind Kind, const SoCParams &Params,
                  int64_t MaxWindowWords = DefaultMaxWindowWords);

  std::string getName() const override { return "conv2d"; }
  void reset() override;
  std::unique_ptr<AcceleratorModel> cloneFresh() const override {
    return std::make_unique<ConvAccelerator>(Kind, Params,
                                             Cfg.MaxWindowWords);
  }

  int64_t getInputChannels() const { return Cfg.InputChannels; }
  int64_t getFilterSize() const { return Cfg.FilterSize; }
  uint64_t getWindowsComputed() const { return WindowsComputed; }

  /// The protocol configuration of a freshly reset engine with a window
  /// buffer of \p MaxWindowWords words: one channel, 1x1 filter, no filter
  /// loaded.
  static protocol::Config resetConfig(int64_t MaxWindowWords);

protected:
  const protocol::Engine &protocolTable() const override {
    return protocol::Conv;
  }
  uint32_t *payloadBuffer(protocol::Fill F, size_t Words) override;
  void apply(uint8_t Effects) override;

private:
  template <ElemKind K> double windowDot() const;

  ElemKind Kind;
  uint32_t CfgWord = 0; // SET_IC / SET_FS payload
  SoCParams Params;

  std::vector<uint32_t> Filter;
  std::vector<uint32_t> Window;  // input window being received
  std::vector<double> OutputAcc; // output slice values, in emission order

  uint64_t WindowsComputed = 0;
};

} // namespace sim
} // namespace axi4mlir

#endif // AXI4MLIR_SIM_CONVACCELERATOR_H
