//===- ConfigParser.h - Configuration file parser ---------------*- C++ -*-===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses the JSON configuration file of paper Fig. 5 into a SystemConfig,
/// validating the opcode map, the opcode flows and the selected flow
/// (paper Sec. III-B3 "Configuration Parsing").
///
//===----------------------------------------------------------------------===//

#ifndef AXI4MLIR_PARSER_CONFIGPARSER_H
#define AXI4MLIR_PARSER_CONFIGPARSER_H

#include "parser/AcceleratorConfig.h"
#include "sim/CostModel.h"
#include "support/LogicalResult.h"

#include <string>

namespace axi4mlir {
namespace parser {

/// Parses configuration text. On failure fills \p Error.
FailureOr<SystemConfig> parseSystemConfig(const std::string &Text,
                                          std::string *Error = nullptr);

/// Parses a configuration file from disk.
FailureOr<SystemConfig> parseSystemConfigFile(const std::string &Path,
                                              std::string *Error = nullptr);

/// The modeled SoC calibration \p Cpu describes: the defaults, with the
/// last `cpu.cache-levels` entry as the L2. Fails with a diagnostic in
/// \p Error when that level cannot hold one cache set (L2Associativity x
/// CacheLineBytes), since no SoC could be built from it.
FailureOr<sim::SoCParams> makeSoCParams(const CpuInfo &Cpu,
                                        std::string *Error = nullptr);

} // namespace parser
} // namespace axi4mlir

#endif // AXI4MLIR_PARSER_CONFIGPARSER_H
