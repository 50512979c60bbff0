// Copyright (c) 2026 madnet authors. All rights reserved.

#include "sketch/fm_sketch.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace madnet::sketch {

FmSketch::FmSketch(int length_bits) : length_bits_(length_bits) {
  MADNET_DCHECK(length_bits >= 1 && length_bits <= 64);
}

void FmSketch::AddHash(uint64_t hash) {
  int rho = LowestSetBit(hash);
  if (rho >= length_bits_) rho = length_bits_ - 1;
  // Bucket bound: the clamped bit position must land inside the bitmap,
  // or the OR below would silently widen the sketch.
  MADNET_DCHECK(rho >= 0 && rho < length_bits_);
  bits_ |= uint64_t{1} << rho;
}

bool FmSketch::TestBit(int i) const {
  MADNET_DCHECK(i >= 0 && i < length_bits_);
  return (bits_ >> i) & 1;
}

int FmSketch::MinZeroBit() const {
  // Lowest zero bit == lowest set bit of the complement.
  int pos = LowestSetBit(~bits_);
  return pos < length_bits_ ? pos : length_bits_;
}

double FmSketch::Estimate() const {
  return std::pow(2.0, MinZeroBit()) / kFmPhi;
}

Status FmSketch::Merge(const FmSketch& other) {
  if (other.length_bits_ != length_bits_) {
    return Status::InvalidArgument("FM sketch length mismatch");
  }
  bits_ |= other.bits_;
  return Status::Ok();
}

StatusOr<FmSketch> FmSketch::FromBits(uint64_t bits, int length_bits) {
  if (length_bits < 1 || length_bits > 64) {
    return Status::InvalidArgument("FM sketch length out of range");
  }
  if (length_bits < 64 && (bits >> length_bits) != 0) {
    return Status::InvalidArgument("bits set beyond sketch length");
  }
  FmSketch sketch(length_bits);
  sketch.bits_ = bits;
  return sketch;
}

std::string FmSketch::ToString() const {
  std::string out;
  out.reserve(length_bits_);
  for (int i = 0; i < length_bits_; ++i) out += TestBit(i) ? '1' : '0';
  return out;
}

FmSketchArray::FmSketchArray(const Options& options)
    : options_(options),
      sketches_(static_cast<size_t>(std::max(options.num_sketches, 0)),
                FmSketch(options.length_bits)) {
  MADNET_DCHECK_GE(options.num_sketches, 1);
}

void FmSketchArray::AddUser(uint64_t user_id) {
  for (size_t i = 0; i < sketches_.size(); ++i) {
    // Distinct seeds per sketch index give F independent family members.
    // The hash functions derive from the options alone, so they are made
    // here rather than stored in (and copied with) every array.
    const uint64_t index = static_cast<uint64_t>(i) + 1;
    const HashFunction hash(options_.hash_seed + 0x9E3779B97F4A7C15ULL * index);
    sketches_[i].AddHash(hash(user_id));
  }
}

double FmSketchArray::Estimate() const {
  if (Empty()) return 0.0;
  double sum_min = 0.0;
  for (const auto& sketch : sketches_) sum_min += sketch.MinZeroBit();
  const double mean = sum_min / static_cast<double>(sketches_.size());
  return std::pow(2.0, mean) / kFmPhi;
}

Status FmSketchArray::Merge(const FmSketchArray& other, bool* changed) {
  if (changed != nullptr) *changed = false;
  if (other.options_.num_sketches != options_.num_sketches ||
      other.options_.length_bits != options_.length_bits ||
      other.options_.hash_seed != options_.hash_seed) {
    return Status::InvalidArgument("FM sketch array options mismatch");
  }
  for (size_t i = 0; i < sketches_.size(); ++i) {
    const uint64_t before = sketches_[i].bits();
    Status s = sketches_[i].Merge(other.sketches_[i]);
    if (!s.ok()) return s;
    if (changed != nullptr && sketches_[i].bits() != before) *changed = true;
  }
  return Status::Ok();
}

bool FmSketchArray::Empty() const {
  for (const auto& sketch : sketches_) {
    if (!sketch.Empty()) return false;
  }
  return true;
}

int FmSketchArray::SizeBits() const {
  return options_.num_sketches * options_.length_bits;
}

StatusOr<FmSketchArray> FmSketchArray::FromParts(
    const Options& options, const std::vector<uint64_t>& bitmaps) {
  if (static_cast<int>(bitmaps.size()) != options.num_sketches) {
    return Status::InvalidArgument("bitmap count != num_sketches");
  }
  FmSketchArray array(options);
  for (size_t i = 0; i < bitmaps.size(); ++i) {
    auto sketch = FmSketch::FromBits(bitmaps[i], options.length_bits);
    if (!sketch.ok()) return sketch.status();
    array.sketches_[i] = std::move(sketch).value();
  }
  return array;
}

bool FmSketchArray::operator==(const FmSketchArray& other) const {
  if (options_.num_sketches != other.options_.num_sketches ||
      options_.length_bits != other.options_.length_bits ||
      options_.hash_seed != other.options_.hash_seed) {
    return false;
  }
  for (size_t i = 0; i < sketches_.size(); ++i) {
    if (!(sketches_[i] == other.sketches_[i])) return false;
  }
  return true;
}

int FmSketchArray::RecommendedLength(uint64_t max_n, int num_sketches,
                                     double delta) {
  MADNET_DCHECK(max_n >= 1 && num_sketches >= 1 && delta > 0.0 && delta < 1.0);
  const double bits = std::log2(static_cast<double>(max_n)) +
                      std::log2(static_cast<double>(num_sketches)) +
                      std::log2(1.0 / delta);
  int length = static_cast<int>(std::ceil(bits)) + 4;  // Headroom.
  return std::min(length, 64);
}

}  // namespace madnet::sketch
