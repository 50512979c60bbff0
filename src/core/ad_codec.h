// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Binary wire codec for advertisements: a length-prefixed little-endian
// format covering the full message of Section III-A — id, issuing time and
// location, current and initial R/D, content, and the piggy-backed FM
// sketches. The simulator itself passes payloads by pointer (broadcast
// semantics), so the codec's jobs are (a) grounding the wire-size model,
// (b) persistence, and (c) interop with external tooling.
//
// Layout (all integers little-endian, doubles IEEE-754 bit patterns):
//   u32 magic 'MADV'   u16 version   u32 issuer   u32 sequence
//   f64 issue_time     f64 x         f64 y
//   f64 initial_radius f64 initial_duration
//   f64 radius         f64 duration
//   str category       u16 keyword_count  { str keyword }*
//   str text
//   u16 num_sketches   u16 length_bits    u64 hash_seed   { u64 bits }*
// where str = u32 length + bytes.

#ifndef MADNET_CORE_AD_CODEC_H_
#define MADNET_CORE_AD_CODEC_H_

#include <string>
#include <string_view>

#include "core/advertisement.h"
#include "util/status.h"

namespace madnet::core {

/// Serializes an advertisement to its wire form.
std::string EncodeAdvertisement(const Advertisement& ad);

/// Parses a wire-form advertisement. Returns InvalidArgument on a bad
/// magic/version, truncation, or inconsistent sketch geometry.
StatusOr<Advertisement> DecodeAdvertisement(std::string_view bytes);

/// Exact encoded size, in bytes (== EncodeAdvertisement(ad).size(),
/// computed without building the string).
size_t EncodedSize(const Advertisement& ad);

}  // namespace madnet::core

#endif  // MADNET_CORE_AD_CODEC_H_
