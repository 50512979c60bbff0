// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Text-file persistence for mobility traces (the role ns-2's `setdest`
// movement files played for the paper): record a whole scenario's
// trajectories once, replay them under any protocol or parameter setting.
//
// Format ("madnet trace v1"), line-oriented, '#' comments allowed:
//
//   madnet-trace 1
//   node <id> <num_legs>
//   <start> <end> <from_x> <from_y> <to_x> <to_y>     (num_legs lines)
//   node <id> <num_legs>
//   ...

#ifndef MADNET_MOBILITY_TRACE_IO_H_
#define MADNET_MOBILITY_TRACE_IO_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mobility/trace.h"
#include "util/status.h"

namespace madnet::mobility {

/// A scenario's worth of traces: (node id, trajectory) pairs.
using TraceSet = std::vector<std::pair<uint32_t, Trace>>;

/// Writes a trace set to `path`. Overwrites. IoError on filesystem
/// problems.
Status SaveTraces(const std::string& path, const TraceSet& traces);

/// Reads a trace set from `path`. Validates the header, leg counts, and
/// leg continuity (via Trace::FromLegs).
StatusOr<TraceSet> LoadTraces(const std::string& path);

/// Writes the traces in the ns-2 `setdest` movement-file dialect the paper
/// used with ns-2 ("$node_(i) set X_ ..." plus "$ns_ at t \"$node_(i)
/// setdest x y speed\"" lines), for interop with ns-2 tooling. Pause legs
/// are implicit (no setdest is emitted while a node rests). Export only.
Status SaveNs2Movements(const std::string& path, const TraceSet& traces);

}  // namespace madnet::mobility

#endif  // MADNET_MOBILITY_TRACE_IO_H_
